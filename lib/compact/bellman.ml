type order = Insertion | Sorted_by_abscissa | Reverse_sorted

type result = {
  values : int array;
  passes : int;
  relaxations : int;
  scans : int;
}

type witness_edge = { w_from : string; w_to : string; w_gap : int }

exception Infeasible of witness_edge list

exception Unbounded of int

(* [Array.sort]'s ternary heap sort, specialised to ordering
   constraint indices [e] by [key.(src.(e))]: it makes the same
   comparisons in the same sequence, so it yields the same permutation
   (ties included), without a closure call per comparison. *)
let sort_by_source_key (key : int array) (src : int array) (a : int array) =
  (* the child of [i] with the largest key, or -1 at the bottom *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x =
        if key.(src.(a.(i31))) < key.(src.(a.(i31 + 1))) then i31 + 1 else i31
      in
      if key.(src.(a.(x))) < key.(src.(a.(i31 + 2))) then i31 + 2 else x
    end
    else if i31 + 1 < l && key.(src.(a.(i31))) < key.(src.(a.(i31 + 1))) then
      i31 + 1
    else if i31 < l then i31
    else -1
  in
  let rec trickle l i e =
    let j = maxson l i in
    if j >= 0 && key.(src.(a.(j))) > key.(src.(e)) then begin
      a.(i) <- a.(j);
      trickle l j e
    end
    else a.(i) <- e
  in
  let rec bubble l i =
    let j = maxson l i in
    if j < 0 then i
    else begin
      a.(i) <- a.(j);
      bubble l j
    end
  in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if key.(src.(a.(father))) < key.(src.(e)) then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* Visit order: [perm.(k)] is the constraint examined k-th — sorted by
   the source variable's initial abscissa, ascending or (as [lnot],
   which reverses every comparison) descending. *)
let permutation order g (src : int array) m =
  let perm = Array.init m Fun.id in
  let key f = Array.init (Cgraph.n_vars g) (fun v -> f (Cgraph.init_value g v)) in
  (match order with
  | Insertion -> ()
  | Sorted_by_abscissa -> sort_by_source_key (key Fun.id) src perm
  | Reverse_sorted -> sort_by_source_key (key lnot) src perm);
  perm

(* ---- negative-cycle witness extraction ----------------------------- *)
(*
   [pred.(v)] is the index of the edge that last tightened [v].  When
   the pass bound trips, some recently-relaxed variable's predecessor
   chain is longer than the variable count, so by pigeonhole it
   revisits a variable; the edges between the two visits form a cycle,
   and any cycle that appears in a predecessor chain of a longest-path
   relaxation has positive total gap — exactly the contradiction that
   makes the system infeasible.  Walking is bounded and purely
   diagnostic: if no seed yields a cycle (a chain ends at the origin
   first), the exception carries an empty witness rather than looping.
*)
let extract_cycle (src : int array) pred n seeds =
  let find_from v =
    let seen = Array.make n (-1) in
    let rec walk u step =
      if u < 0 || u >= n || pred.(u) < 0 then None
      else if seen.(u) >= 0 then begin
        (* collect the cycle: edges from the first visit of [u] back
           to [u], in traversal order *)
        let cycle = ref [] in
        let rec collect w =
          let e = pred.(w) in
          cycle := e :: !cycle;
          if src.(e) <> u then collect src.(e)
        in
        collect u;
        Some !cycle
      end
      else begin
        seen.(u) <- step;
        walk src.(pred.(u)) (step + 1)
      end
    in
    walk v 0
  in
  let rec try_seeds = function
    | [] -> []
    | v :: tl -> (match find_from v with Some c -> c | None -> try_seeds tl)
  in
  try_seeds seeds

(* The witness names its endpoints at raise time, while the graph is
   still in hand — catchers (the CLI, a server worker) need no access
   to the solver's graph to print it. *)
let name_cycle g cycle =
  let src, dst, gap = Cgraph.edges g in
  List.map
    (fun e ->
      { w_from = Cgraph.name g src.(e);
        w_to = Cgraph.name g dst.(e);
        w_gap = gap.(e) })
    cycle

let cycle_gain cycle = List.fold_left (fun a w -> a + w.w_gap) 0 cycle

let pp_witness ppf cycle =
  match cycle with
  | [] -> Format.fprintf ppf "constraints are contradictory (no cycle witness)"
  | _ ->
    Format.fprintf ppf
      "positive constraint cycle (net gain %+d over %d constraints):"
      (cycle_gain cycle) (List.length cycle);
    List.iter
      (fun w ->
        Format.fprintf ppf "@\n  %s -> %s  (gap %+d)" w.w_from w.w_to w.w_gap)
      cycle

(* Worklist relaxation: only the out-edges of variables that moved in
   the previous generation are rescanned, instead of every edge every
   pass.  Candidate edges are visited in visit-order position, so the
   [order] parameter keeps exactly its section 6.4.2 meaning (a
   well-ordered chain still cascades through a whole generation), and
   values are read live, so within-generation propagation is as fast
   as a full sweep.  A generation whose scan moves nothing is the
   quiescence check; [passes] counts it, matching the fixed-pass
   solver on its best case.

   The graph stays in its flat arrays.  Each variable records the
   first and last position of its out-edges; a generation flags its
   frontier variables and scans the positions between their extremes
   in order, examining exactly the edges leaving a flagged variable —
   the frontier's out-edges, in the order sorting their union would
   give. *)
let solve ?(order = Sorted_by_abscissa) g =
  let n = Cgraph.n_vars g in
  let m = Cgraph.n_constraints g in
  let src, dst, gap = Cgraph.edges g in
  let perm = permutation order g src m in
  let first = Array.make n m and last = Array.make n (-1) in
  for k = m - 1 downto 0 do
    first.(src.(perm.(k))) <- k
  done;
  for k = 0 to m - 1 do
    last.(src.(perm.(k))) <- k
  done;
  let x = Array.make n min_int in
  x.(Cgraph.origin) <- 0;
  let pred = Array.make n (-1) in
  let passes = ref 0 and relaxations = ref 0 and scans = ref 0 in
  let in_front = Array.make n false and queued = Array.make n false in
  (* the variables that moved in the last generation, by first move *)
  let frontier = ref (Array.make n 0) and next = ref (Array.make n 0) in
  !frontier.(0) <- Cgraph.origin;
  let n_front = ref 1 in
  while !n_front > 0 do
    incr passes;
    if !passes > n + 1 then begin
      let seeds = List.rev (Array.to_list (Array.sub !frontier 0 !n_front)) in
      raise (Infeasible (name_cycle g (extract_cycle src pred n seeds)))
    end;
    let front = !frontier and lo = ref m and hi = ref (-1) in
    for q = 0 to !n_front - 1 do
      let v = front.(q) in
      in_front.(v) <- true;
      lo := min !lo first.(v);
      hi := max !hi last.(v)
    done;
    let nxt = !next and n_next = ref 0 in
    for k = !lo to !hi do
      let e = perm.(k) in
      let f = src.(e) in
      if in_front.(f) then begin
        incr scans;
        let xf = x.(f) in
        if xf > min_int then begin
          let t = dst.(e) in
          let bound = xf + gap.(e) in
          if bound > x.(t) then begin
            x.(t) <- bound;
            pred.(t) <- e;
            incr relaxations;
            if not queued.(t) then begin
              queued.(t) <- true;
              nxt.(!n_next) <- t;
              incr n_next
            end
          end
        end
      end
    done;
    for q = 0 to !n_front - 1 do
      in_front.(front.(q)) <- false
    done;
    for q = 0 to !n_next - 1 do
      queued.(nxt.(q)) <- false
    done;
    next := front;
    frontier := nxt;
    n_front := !n_next
  done;
  Array.iteri (fun v xv -> if xv = min_int then raise (Unbounded v)) x;
  { values = x; passes = !passes; relaxations = !relaxations; scans = !scans }

(* The original fixed-pass solver: every pass sweeps the whole edge
   array until a sweep changes nothing.  Kept as the reference the
   worklist solver is benchmarked against (E11) and property-tested
   for equality. *)
let solve_fixed ?(order = Sorted_by_abscissa) g =
  let n = Cgraph.n_vars g in
  let m = Cgraph.n_constraints g in
  let src, dst, gap = Cgraph.edges g in
  let perm = permutation order g src m in
  let x = Array.make n min_int in
  x.(Cgraph.origin) <- 0;
  let pred = Array.make n (-1) in
  let last_moved = ref Cgraph.origin in
  let passes = ref 0 and relaxations = ref 0 and scans = ref 0 in
  let changed = ref true in
  while !changed do
    if !passes > n + 1 then
      raise
        (Infeasible (name_cycle g (extract_cycle src pred n [ !last_moved ])));
    changed := false;
    incr passes;
    for k = 0 to m - 1 do
      incr scans;
      let e = perm.(k) in
      let xf = x.(src.(e)) in
      if xf > min_int then begin
        let t = dst.(e) in
        let bound = xf + gap.(e) in
        if bound > x.(t) then begin
          x.(t) <- bound;
          pred.(t) <- e;
          last_moved := t;
          incr relaxations;
          changed := true
        end
      end
    done
  done;
  Array.iteri (fun v xv -> if xv = min_int then raise (Unbounded v)) x;
  { values = x; passes = !passes; relaxations = !relaxations; scans = !scans }
