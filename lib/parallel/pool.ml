(** Fixed-size Domain work pool.  See pool.mli for the contract; the shape
    in one paragraph: [jobs - 1] worker domains are spawned once and parked
    on [work_ready]; {!run} publishes a batch (bumping [epoch]), every
    participating domain — the caller included — claims chunks of task
    indices from the batch's atomic cursor, writes results into per-index
    slots, and the caller returns once the batch's completion count drains
    to zero.  Tasks never raise across the domain boundary: failures are
    recorded per index and the lowest-index one is re-raised at join, so a
    crashing task can neither wedge a worker nor make the merge order (or
    the propagated error) depend on scheduling. *)

type batch = {
  b_next : int Atomic.t;  (** next unclaimed task index *)
  b_chunk : int;  (** indices claimed per grab *)
  b_n : int;
  b_run : int -> unit;  (** wrapped task body; never raises *)
  mutable b_remaining : int;  (** uncompleted tasks; guarded by the pool mutex *)
}

type t = {
  p_jobs : int;
  mu : Mutex.t;
  work_ready : Condition.t;  (** a new batch (or stop) was published *)
  work_done : Condition.t;  (** some batch drained to zero *)
  mutable current : batch option;
  mutable epoch : int;  (** bumped once per published batch *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

exception Task_failed of { index : int; exn : exn; backtrace : string }

let jobs (p : t) : int = p.p_jobs

(* Claim and execute chunks until the cursor runs off the end; the return
   value is how many tasks this domain completed (its contribution to
   [b_remaining]). *)
let drain (b : batch) : int =
  let completed = ref 0 in
  let rec go () =
    let start = Atomic.fetch_and_add b.b_next b.b_chunk in
    if start < b.b_n then begin
      let stop = min b.b_n (start + b.b_chunk) in
      for i = start to stop - 1 do
        b.b_run i
      done;
      completed := !completed + (stop - start);
      go ()
    end
  in
  go ();
  !completed

let worker_loop (p : t) : unit =
  let my_epoch = ref 0 in
  Mutex.lock p.mu;
  let rec loop () =
    if p.stop then Mutex.unlock p.mu
    else if p.epoch = !my_epoch then begin
      Condition.wait p.work_ready p.mu;
      loop ()
    end
    else begin
      my_epoch := p.epoch;
      match p.current with
      | None -> loop ()
      | Some b ->
          Mutex.unlock p.mu;
          let completed = drain b in
          Mutex.lock p.mu;
          b.b_remaining <- b.b_remaining - completed;
          if b.b_remaining = 0 then Condition.broadcast p.work_done;
          loop ()
    end
  in
  loop ()

let shutdown (p : t) : unit =
  Mutex.lock p.mu;
  if p.stop then Mutex.unlock p.mu
  else begin
    p.stop <- true;
    Condition.broadcast p.work_ready;
    Mutex.unlock p.mu;
    List.iter Domain.join p.domains;
    p.domains <- []
  end

let create ?jobs () : t =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Domain.recommended_domain_count ())
  in
  let p =
    {
      p_jobs = jobs;
      mu = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      current = None;
      epoch = 0;
      stop = false;
      domains = [];
    }
  in
  if jobs > 1 then
    p.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p));
  (* A pool nobody shuts down must not block process exit (the runtime
     joins all live domains); shutdown is idempotent. *)
  at_exit (fun () -> shutdown p);
  p

let run (type a) (p : t) ?chunk (f : int -> a) (n : int) : a array =
  if n = 0 then [||]
  else begin
    if p.stop then invalid_arg "Pool.run: pool is shut down";
    let results : a option array = Array.make n None in
    let errors : (int * exn * string) list ref = ref [] in
    let err_mu = Mutex.create () in
    let run_item i =
      match f i with
      | v -> results.(i) <- Some v
      | exception e ->
          let backtrace = Printexc.get_backtrace () in
          Mutex.lock err_mu;
          errors := (i, e, backtrace) :: !errors;
          Mutex.unlock err_mu
    in
    let chunk =
      match chunk with Some c -> max 1 c | None -> max 1 (n / (p.p_jobs * 8))
    in
    if p.p_jobs = 1 then
      (* Inline fast path: same order, same drain-then-raise error
         behavior, no synchronization. *)
      for i = 0 to n - 1 do
        run_item i
      done
    else begin
      let b =
        { b_next = Atomic.make 0; b_chunk = chunk; b_n = n; b_run = run_item; b_remaining = n }
      in
      Mutex.lock p.mu;
      p.current <- Some b;
      p.epoch <- p.epoch + 1;
      Condition.broadcast p.work_ready;
      Mutex.unlock p.mu;
      let mine = drain b in
      Mutex.lock p.mu;
      b.b_remaining <- b.b_remaining - mine;
      while b.b_remaining > 0 do
        Condition.wait p.work_done p.mu
      done;
      p.current <- None;
      Mutex.unlock p.mu
    end;
    match !errors with
    | [] -> Array.map (function Some v -> v | None -> assert false) results
    | errs ->
        let index, exn, backtrace =
          List.fold_left
            (fun ((bi, _, _) as best) ((i, _, _) as e) -> if i < bi then e else best)
            (List.hd errs) (List.tl errs)
        in
        raise (Task_failed { index; exn; backtrace })
  end

let with_pool ?jobs (f : t -> 'a) : 'a =
  let p = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
