(** Local aliases for the MiniIR and pass-infrastructure modules. *)

module Ir = Miniir.Ir
module Dom = Miniir.Dom
module Liveness = Miniir.Liveness
module Loops = Miniir.Loops
module Verifier = Miniir.Verifier
module Code_mapper = Passes.Code_mapper
module Interp = Tinyvm.Interp
module Osr_error = Tinyvm.Osr_error
