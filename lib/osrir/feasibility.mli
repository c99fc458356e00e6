(** Per-point OSR feasibility analysis — the machinery behind Figures 7/8
    and Table 3. *)

type classification =
  | Empty  (** c = ⟨⟩ under the live variant, empty keep set *)
  | With_live of Reconstruct_ir.plan
  | With_avail of Reconstruct_ir.plan  (** only the avail variant succeeds *)
  | Infeasible

type point_report = {
  point : int;
  landing : int option;
  classification : classification;
  live_plan : Reconstruct_ir.plan option;
  avail_plan : Reconstruct_ir.plan option;
}

type summary = {
  total_points : int;
  empty : int;
  live_ok : int;  (** feasible with live (includes empty) *)
  avail_ok : int;  (** feasible with avail (includes live_ok) *)
  reports : point_report list;
}

val analyze :
  ?config:Reconstruct_ir.config ->
  ?telemetry:Telemetry.sink ->
  Osr_ctx.t ->
  summary
(** Classify every source program point of the context's direction, in
    block and instruction order.  A live [telemetry] sink receives a
    ["feasibility"] span, per-outcome counters (group ["reconstruct"]) and
    remarks explaining infeasible and avail-only points. *)

val percentages : summary -> float * float * float
(** (empty, live, avail) percentages for the Figure 7/8 stacked bars. *)

val comp_stats : summary -> [ `Live | `Avail ] -> float * int
(** Average and peak compensation-code size over the respective feasible
    points (Table 3; note the two variants average over different sets). *)

val keep_stats : summary -> float * int
(** Average and peak keep-set size over points that keep anything alive
    (|K_avail| of Table 3). *)
