module Area = Bistpath_datapath.Area
module Datapath = Bistpath_datapath.Datapath
module Massign = Bistpath_dfg.Massign
module Ipath = Bistpath_ipath.Ipath
module Listx = Bistpath_util.Listx
module Telemetry = Bistpath_telemetry.Telemetry
module Budget = Bistpath_resilience.Budget
module Cancel = Bistpath_resilience.Cancel
module Outcome = Bistpath_resilience.Outcome
module Inject = Bistpath_resilience.Inject

type solution = {
  embeddings : Ipath.embedding list;
  styles : (string * Resource.style) list;
  untestable : string list;
  delta_gates : int;
  exact : bool;
}

(* Style ids index the per-register gate table. *)
let all_styles = [| Resource.Normal; Resource.Tpg; Resource.Sa; Resource.Bilbo; Resource.Cbilbo |]

let n_styles = Array.length all_styles

let style_id ~gen ~comp ~both =
  if both > 0 then 4 else if gen > 0 then if comp > 0 then 3 else 1 else if comp > 0 then 2 else 0

(* Incremental role state over integer register ids: per register, counts
   of generate/compact duties and of units for which the register does
   both. The style (and hence cost) of a register is a function of this
   summary only. *)
type engine = {
  gates : int array;  (* register * n_styles + style: gates, io penalty folded in *)
  forbidden : bool array;  (* per style *)
  gen : int array;  (* TPG duties *)
  comp : int array;  (* SA duties *)
  both : int array;  (* units for which the register is TPG and SA *)
  mutable cost : int;
  mutable infeasible : int;  (* registers in a forbidden style *)
}

let style_of eng r = style_id ~gen:eng.gen.(r) ~comp:eng.comp.(r) ~both:eng.both.(r)

let touch eng r ~gen ~comp ~both =
  let before = style_of eng r in
  eng.gen.(r) <- eng.gen.(r) + gen;
  eng.comp.(r) <- eng.comp.(r) + comp;
  eng.both.(r) <- eng.both.(r) + both;
  let after = style_of eng r in
  let base = r * n_styles in
  eng.cost <- eng.cost - eng.gates.(base + before) + eng.gates.(base + after);
  if eng.forbidden.(before) then eng.infeasible <- eng.infeasible - 1;
  if eng.forbidden.(after) then eng.infeasible <- eng.infeasible + 1

let apply3 eng l r sa =
  touch eng l ~gen:1 ~comp:0 ~both:(if l = sa then 1 else 0);
  touch eng r ~gen:1 ~comp:0 ~both:(if r = sa then 1 else 0);
  touch eng sa ~gen:0 ~comp:1 ~both:0

let unapply3 eng l r sa =
  touch eng sa ~gen:0 ~comp:(-1) ~both:0;
  touch eng r ~gen:(-1) ~comp:0 ~both:(if r = sa then -1 else 0);
  touch eng l ~gen:(-1) ~comp:0 ~both:(if l = sa then -1 else 0)

(* An embedding packs into one int: its l_tpg, r_tpg and sa register
   ids in [field]-bit slots. *)
let field = 20
let mask = (1 lsl field) - 1
let pack3 l r sa = l lor (r lsl field) lor (sa lsl (2 * field))
let apply eng e = apply3 eng (e land mask) ((e lsr field) land mask) (e lsr (2 * field))
let unapply eng e = unapply3 eng (e land mask) ((e lsr field) land mask) (e lsr (2 * field))

let solve ?(model = Area.default) ?(width = 8) ?(forbidden = [])
    ?(node_budget = 200_000) ?(io_penalty_percent = 100) ?(transparency = false)
    ?(budget = Budget.unlimited) dp =
  let units =
    dp.Datapath.massign.Massign.units
    |> List.filter (fun (u : Massign.hw) ->
           Massign.temporal_multiplicity dp.Datapath.massign dp.Datapath.dfg u.mid > 0)
  in
  let with_embeddings =
    List.map (fun (u : Massign.hw) -> (u.mid, Ipath.embeddings ~transparency dp u.mid)) units
  in
  let untestable =
    List.filter_map (fun (m, es) -> if es = [] then Some m else None) with_embeddings
  in
  Telemetry.incr "bist.units" ~by:(List.length with_embeddings);
  Telemetry.incr "bist.embedding_candidates"
    ~by:(Listx.sum_by (fun (_, es) -> List.length es) with_embeddings);
  let cbilbos l = List.length (List.filter Ipath.requires_cbilbo l) in
  let offered_cbilbos = Listx.sum_by (fun (_, es) -> cbilbos es) with_embeddings in
  (* Number the registers once: the data path's, then any other an
     embedding names. *)
  let ids = Hashtbl.create 16 in
  let id rid =
    match Hashtbl.find_opt ids rid with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.replace ids rid i;
      i
  in
  List.iter (fun (r : Datapath.reg) -> ignore (id r.Datapath.rid)) dp.Datapath.regs;
  let pack (e : Ipath.embedding) = pack3 (id e.l_tpg) (id e.r_tpg) (id e.sa) in
  let coded =
    List.filter_map
      (fun (m, es) ->
        if es = [] then None
        else
          let recs = Array.of_list es in
          Some (m, recs, Array.map pack recs))
      with_embeddings
  in
  let nr = Hashtbl.length ids in
  if nr > mask then invalid_arg "Allocator.solve: too many registers";
  let penalized = Array.make nr false in
  if io_penalty_percent <> 100 then
    List.iter
      (fun (r : Datapath.reg) ->
        if r.Datapath.dedicated then penalized.(id r.Datapath.rid) <- true)
      dp.Datapath.regs;
  let gates =
    Array.init (nr * n_styles) (fun k ->
        let base = Resource.delta_gates model ~width all_styles.(k mod n_styles) in
        if penalized.(k / n_styles) then base * io_penalty_percent / 100 else base)
  in
  let forbidden = Array.map (fun s -> List.mem s forbidden) all_styles in
  let fresh_engine () =
    {
      gates;
      forbidden;
      gen = Array.make nr 0;
      comp = Array.make nr 0;
      both = Array.make nr 0;
      cost = 0;
      infeasible = 0;
    }
  in
  let eng = fresh_engine () in
  let cost_alone p =
    apply eng p;
    let c = eng.cost in
    unapply eng p;
    c
  in
  (* Order: units with fewest embeddings first; within a unit, embeddings
     sorted by their cost against the empty state (cheap first), ties in
     structural order. Sorting an index array keeps the embeddings, their
     codes and costs in flat arrays instead of boxed keyed lists. *)
  let order_unit (m, recs, codes) =
    let costs = Array.map cost_alone codes in
    let idx = Array.init (Array.length recs) Fun.id in
    Array.stable_sort
      (fun i j ->
        match Int.compare costs.(i) costs.(j) with 0 -> compare recs.(i) recs.(j) | d -> d)
      idx;
    (m, (Array.map (fun i -> recs.(i)) idx, Array.map (fun i -> codes.(i)) idx))
  in
  let testable =
    List.map order_unit coded
    |> List.stable_sort (fun (_, (a, _)) (_, (b, _)) -> compare (Array.length a) (Array.length b))
  in
  let mids = Array.of_list (List.map fst testable) in
  let recs = Array.of_list (List.map (fun (_, (r, _)) -> r) testable) in
  let packed = Array.of_list (List.map (fun (_, (_, p)) -> p) testable) in
  let n = Array.length packed in
  (* Cheapest feasible embedding of unit i against the engine's state
     (the first on ties), as an index into packed.(i), or -1. *)
  let cheapest eng i =
    let es = packed.(i) in
    let best = ref (-1) and best_cost = ref 0 in
    for k = 0 to Array.length es - 1 do
      apply eng es.(k);
      let c = eng.cost and ok = eng.infeasible = 0 in
      unapply eng es.(k);
      if ok && (!best < 0 || c < !best_cost) then begin
        best := k;
        best_cost := c
      end
    done;
    !best
  in
  (* Greedy warm start: take, per unit in order, the embedding with the
     smallest feasible cost increase. *)
  let greedy = Array.make n (-1) in
  for i = 0 to n - 1 do
    match cheapest eng i with
    | -1 -> ()
    | k ->
      apply eng packed.(i).(k);
      greedy.(i) <- k
  done;
  let greedy_cost = if Array.mem (-1) greedy then max_int else eng.cost in
  (* Reset engine. *)
  Array.iteri (fun i k -> if k >= 0 then unapply eng packed.(i).(k)) greedy;
  let best_cost = ref greedy_cost in
  let best = ref (if greedy_cost = max_int then None else Some greedy) in
  let chosen = Array.make n (-1) in
  let nodes = ref 0 in
  let exhausted = ref false in
  let rec branch i =
    if !nodes > node_budget || Budget.should_stop budget then exhausted := true
    else if i = n then begin
      Inject.fire "allocator.leaf";
      if eng.infeasible = 0 && eng.cost < !best_cost then begin
        best_cost := eng.cost;
        best := Some (Array.copy chosen)
      end
    end
    else begin
      let es = packed.(i) in
      let k = ref 0 in
      (* The running cost is the same before every sibling and the bound
         only tightens, so the first pruned sibling ends the loop. *)
      while !k < Array.length es && (not !exhausted) && eng.cost < !best_cost do
        incr nodes;
        Budget.node budget;
        apply eng es.(!k);
        chosen.(i) <- !k;
        (* A later embedding can never remove a duty, so a partial
           already using a forbidden style cannot recover: prune. *)
        if eng.infeasible = 0 then branch (i + 1);
        chosen.(i) <- -1;
        unapply eng es.(!k);
        incr k
      done
    end
  in
  Fun.protect
    ~finally:(fun () ->
      if !nodes > 0 then Telemetry.incr "bist.embeddings_explored" ~by:!nodes)
    (fun () -> branch 0);
  (* If nothing feasible was found under the constraints, drop units one
     by one (most-embeddings last) until a feasible core remains. *)
  let picks, extra_untestable =
    match !best with
    | Some ks -> (List.init n (fun i -> (i, ks.(i))), [])
    | None ->
      let rec shrink dropped first =
        if first = n then ([], dropped)
        else
          let dropped = dropped @ [ mids.(first) ] in
          let eng2 = fresh_engine () in
          let rec take i acc =
            if i = n then Some (List.rev acc)
            else
              match cheapest eng2 i with
              | -1 -> None
              | k ->
                apply eng2 packed.(i).(k);
                take (i + 1) ((i, k) :: acc)
          in
          match take (first + 1) [] with
          | Some picks -> (picks, dropped)
          | None -> shrink dropped (first + 1)
      in
      shrink [] 0
  in
  let embeddings =
    List.map (fun (i, k) -> recs.(i).(k)) picks
    |> List.sort (fun (a : Ipath.embedding) b -> compare a.mid b.mid)
  in
  (* CBILBO-requiring embeddings that were on the table but not picked. *)
  Telemetry.incr "bist.cbilbos_avoided" ~by:(max 0 (offered_cbilbos - cbilbos embeddings));
  (* Recompute final styles and cost from scratch for reporting. *)
  let eng3 = fresh_engine () in
  List.iter (fun (i, k) -> apply eng3 packed.(i).(k)) picks;
  let styles =
    List.map
      (fun (r : Datapath.reg) -> (r.rid, all_styles.(style_of eng3 (id r.rid))))
      dp.Datapath.regs
  in
  {
    embeddings;
    styles;
    untestable = List.sort compare (untestable @ extra_untestable);
    delta_gates = eng3.cost;
    exact = not !exhausted;
  }

let solve_outcome ?model ?width ?forbidden ?(node_budget = 200_000)
    ?io_penalty_percent ?transparency ?(budget = Budget.unlimited) dp =
  let sol =
    solve ?model ?width ?forbidden ~node_budget ?io_penalty_percent ?transparency
      ~budget dp
  in
  if sol.exact then Outcome.Complete sol
  else
    (* Token first: a deadline or external cancel is the real cause even
       though it surfaces through the same [exhausted] flag as the local
       node quota. *)
    match Budget.stop_reason budget with
    | Some r -> Outcome.Degraded (sol, r)
    | None -> Outcome.Degraded (sol, Cancel.Node_budget node_budget)

let style_counts sol =
  [ Resource.Cbilbo; Resource.Bilbo; Resource.Tpg; Resource.Sa ]
  |> List.filter_map (fun s ->
         match List.length (List.filter (fun (_, s') -> s' = s) sol.styles) with
         | 0 -> None
         | n -> Some (s, n))

let overhead_percent ?(model = Area.default) ?(width = 8) dp sol =
  let base = Area.functional_gates model ~width dp in
  if base = 0 then 0.0 else 100.0 *. float_of_int sol.delta_gates /. float_of_int base

let pp_solution ppf sol =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (e : Ipath.embedding) ->
      let via = function None -> "" | Some u -> Printf.sprintf " (via %s)" u in
      Format.fprintf ppf "test %s: TPG L=%s%s R=%s%s, SA=%s%s@," e.mid e.l_tpg
        (via e.l_via) e.r_tpg (via e.r_via) e.sa
        (if Ipath.requires_cbilbo e then " (CBILBO)" else ""))
    sol.embeddings;
  List.iter
    (fun (rid, s) ->
      if s <> Resource.Normal then
        Format.fprintf ppf "%s: %s@," rid (Resource.style_label s))
    sol.styles;
  if sol.untestable <> [] then
    Format.fprintf ppf "untestable: %s@," (String.concat ", " sol.untestable);
  Format.fprintf ppf "delta gates: %d%s@]" sol.delta_gates
    (if sol.exact then "" else " (search truncated)")
