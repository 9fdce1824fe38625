(* Reference copies of the allocation searches as they stood before
   they moved to integer-indexed, incremental state: the chordal-graph
   routines that rescan the whole graph, the string-keyed sharing
   context, Lemma 2 recomputed from scratch per candidate, and the
   Hashtbl-backed BIST branch-and-bound. test_differential checks the
   library against them decision for decision. Kept verbatim apart from
   sharing the result types with the library; do not optimise. *)

module Chordal = struct
  include Bistpath_graphs.Chordal
  module Iset = Bistpath_graphs.Ugraph.Iset
  module Ugraph = Bistpath_graphs.Ugraph

  let is_peo g order =
    let all = Iset.of_list (Ugraph.vertices g) in
    let listed = Iset.of_list order in
    Iset.equal all listed
    && List.length order = Iset.cardinal all
    &&
    let rec go g = function
      | [] -> true
      | v :: rest -> Ugraph.is_simplicial g v && go (Ugraph.remove_vertex g v) rest
    in
    go g order

  let peo_with_preference g ~prefer =
    let compare_pref u v =
      let c = prefer u v in
      if c <> 0 then c else compare u v
    in
    let rec go g acc =
      if Ugraph.num_vertices g = 0 then List.rev acc
      else
        let simplicial = List.filter (Ugraph.is_simplicial g) (Ugraph.vertices g) in
        match List.sort compare_pref simplicial with
        | [] -> failwith "Chordal.peo_with_preference: graph is not chordal"
        | v :: _ -> go (Ugraph.remove_vertex g v) (v :: acc)
    in
    go g []

  (* Along a PEO, the candidate maximal cliques are {v} + later neighbors of
     v. A candidate is maximal unless it is contained in the candidate of an
     earlier vertex (standard chordal clique enumeration). *)
  let maximal_cliques g =
    let peo = List.rev (mcs_order g) in
    if not (is_peo g peo) then failwith "Chordal.maximal_cliques: graph is not chordal";
    let position = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace position v i) peo;
    let later_clique v =
      let pv = Hashtbl.find position v in
      let later =
        Iset.filter (fun u -> Hashtbl.find position u > pv) (Ugraph.neighbors g v)
      in
      Iset.add v later
    in
    let candidates = List.map later_clique peo in
    List.filter
      (fun c ->
        not (List.exists (fun c' -> (not (Iset.equal c c')) && Iset.subset c c') candidates))
      candidates
    |> List.sort_uniq (fun a b -> compare (Iset.elements a) (Iset.elements b))

  let max_clique_size_per_vertex g =
    let cliques = maximal_cliques g in
    List.map
      (fun v ->
        let best =
          List.fold_left
            (fun acc c -> if Iset.mem v c then max acc (Iset.cardinal c) else acc)
            1 cliques
        in
        (v, if Ugraph.mem_vertex g v then best else 0))
      (Ugraph.vertices g)
end

module Sharing = struct
  module Dfg = Bistpath_dfg.Dfg
  module Massign = Bistpath_dfg.Massign
  module Sset = Bistpath_dfg.Dfg.Sset

  type ctx = {
    unit_ids : string list;
    ins : (string * Sset.t) list;
    outs : (string * Sset.t) list;
    sources : (string * string list) list;  (* variable -> producing units *)
    dests : (string * string list) list;  (* variable -> consuming units *)
  }

  let make dfg massign =
    let unit_ids =
      massign.Massign.units
      |> List.filter_map (fun (u : Massign.hw) ->
             if Massign.temporal_multiplicity massign dfg u.mid > 0 then Some u.mid
             else None)
      |> List.sort compare
    in
    let ins = List.map (fun m -> (m, Massign.input_variable_set massign dfg m)) unit_ids in
    let outs = List.map (fun m -> (m, Massign.output_variable_set massign dfg m)) unit_ids in
    let vars = Dfg.variables dfg in
    let sources =
      List.map
        (fun v ->
          ( v,
            match Dfg.producer dfg v with
            | Some op -> [ (Massign.unit_of_op massign op.Bistpath_dfg.Op.id).Massign.mid ]
            | None -> [] ))
        vars
    in
    let dests =
      List.map
        (fun v ->
          ( v,
            Dfg.consumers dfg v
            |> List.map (fun (op : Bistpath_dfg.Op.t) ->
                   (Massign.unit_of_op massign op.id).Massign.mid)
            |> List.sort_uniq compare ))
        vars
    in
    { unit_ids; ins; outs; sources; dests }

  let units t = t.unit_ids

  let in_set t mid =
    match List.assoc_opt mid t.ins with Some s -> s | None -> Sset.empty

  let out_set t mid =
    match List.assoc_opt mid t.outs with Some s -> s | None -> Sset.empty

  let sd_var t v =
    let count sets = List.length (List.filter (fun (_, s) -> Sset.mem v s) sets) in
    count t.ins + count t.outs

  let sd_vars t vars =
    let vs = Sset.of_list vars in
    let hits sets =
      List.length (List.filter (fun (_, s) -> not (Sset.is_empty (Sset.inter vs s))) sets)
    in
    hits t.ins + hits t.outs

  let delta_sd t reg v = sd_vars t (v :: reg) - sd_vars t reg

  let source_units t v =
    match List.assoc_opt v t.sources with Some l -> l | None -> []

  let dest_units t v =
    match List.assoc_opt v t.dests with Some l -> l | None -> []
end

module Cbilbo_rules = struct
  module Dfg = Bistpath_dfg.Dfg
  module Massign = Bistpath_dfg.Massign
  module Sset = Bistpath_dfg.Dfg.Sset
  module Listx = Bistpath_util.Listx

  type verdict = {
    mid : string;
    case_i : string list;
    case_ii : (string * string) list;
  }

  let check_module ctx massign dfg ~mid ~classes =
    let out = Sharing.out_set ctx mid in
    let instance_ops = Massign.instance_operands massign dfg mid in
    let set_of vars = Sset.of_list vars in
    let covers_instances vars =
      let vs = set_of vars in
      instance_ops <> []
      && List.for_all (fun ij -> not (Sset.is_empty (Sset.inter vs ij))) instance_ops
    in
    let out_part vars = Sset.inter (set_of vars) out in
    let case_i =
      classes
      |> List.filter_map (fun (rid, vars) ->
             if
               (not (Sset.is_empty out))
               && Sset.equal (out_part vars) out
               && covers_instances vars
             then Some rid
             else None)
    in
    let case_ii =
      Listx.pairs classes
      |> List.concat_map (fun ((rx, vx), (ry, vy)) ->
             let ox = out_part vx and oy = out_part vy in
             if
               (not (Sset.is_empty ox))
               && (not (Sset.is_empty oy))
               && (not (Sset.equal ox out))
               && (not (Sset.equal oy out))
               && Sset.equal (Sset.union ox oy) out
               && covers_instances vx && covers_instances vy
             then [ (rx, ry) ]
             else [])
    in
    { mid; case_i; case_ii }

  let forced v = v.case_i <> [] || v.case_ii <> []

  let verdicts ctx massign dfg ~classes =
    List.map (fun mid -> check_module ctx massign dfg ~mid ~classes) (Sharing.units ctx)

  let any_forced ctx massign dfg ~classes =
    List.exists forced (verdicts ctx massign dfg ~classes)

  (* Greedy cover: each forced module offers candidate registers (case i
     registers, both members of case ii pairs); repeatedly commit the
     register covering the most remaining modules. *)
  let min_cbilbo_count ctx massign dfg ~classes =
    let offers =
      verdicts ctx massign dfg ~classes
      |> List.filter forced
      |> List.map (fun v ->
             List.sort_uniq compare
               (v.case_i @ List.concat_map (fun (x, y) -> [ x; y ]) v.case_ii))
    in
    let rec cover count remaining =
      match remaining with
      | [] -> count
      | _ ->
        let candidates = List.sort_uniq compare (List.concat remaining) in
        let gain r = List.length (List.filter (List.mem r) remaining) in
        let best =
          match Listx.max_by gain candidates with
          | Some r -> r
          | None -> assert false
        in
        cover (count + 1) (List.filter (fun offer -> not (List.mem best offer)) remaining)
    in
    cover 0 offers
end

module Testable_alloc = struct
  module Dfg = Bistpath_dfg.Dfg
  module Lifetime = Bistpath_dfg.Lifetime
  module Massign = Bistpath_dfg.Massign
  module Sset = Bistpath_dfg.Dfg.Sset
  module Ugraph = Bistpath_graphs.Ugraph
  module Regalloc = Bistpath_datapath.Regalloc
  module Listx = Bistpath_util.Listx
  module Telemetry = Bistpath_telemetry.Telemetry

  type options = Bistpath_core.Testable_alloc.options = {
    sd_ordering : bool;
    case_preferences : bool;
    cbilbo_avoidance : bool;
  }

  let default_options =
    { sd_ordering = true; case_preferences = true; cbilbo_avoidance = true }

  type trace_step = Bistpath_core.Testable_alloc.trace_step = {
    vertex : string;
    chosen : string;
    fresh : bool;
    reason : string;
  }

  (* Interconnect affinity (the paper's final tie-break "taking into
     consideration the effect of the assignment on interconnect cost"):
     merging v into a register whose variables share source or destination
     units avoids new multiplexer inputs (Fig. 6 cases 3-5). *)
  let affinity ctx vars v =
    let units_of f vs = List.sort_uniq compare (List.concat_map f vs) in
    let srcs = units_of (Sharing.source_units ctx) vars in
    let dsts = units_of (Sharing.dest_units ctx) vars in
    let v_srcs = Sharing.source_units ctx v in
    let v_dsts = Sharing.dest_units ctx v in
    List.length (List.filter (fun u -> List.mem u srcs) v_srcs)
    + List.length (List.filter (fun u -> List.mem u dsts) v_dsts)

  let allocate ?(options = default_options) dfg massign ~policy =
    let g, idx = Lifetime.conflict_graph ~policy dfg in
    let ctx = Sharing.make dfg massign in
    let mcs = Chordal.max_clique_size_per_vertex g in
    let mcs_of i = match List.assoc_opt i mcs with Some m -> m | None -> 1 in
    let sd_of i = Sharing.sd_var ctx (idx.Lifetime.of_index i) in
    let prefer u v =
      if options.sd_ordering then
        compare (sd_of u, mcs_of u, idx.Lifetime.of_index u)
          (sd_of v, mcs_of v, idx.Lifetime.of_index v)
      else 0
    in
    let peo = Chordal.peo_with_preference g ~prefer in
    let order = List.rev peo in
    (* Mutable classes: (register id, variables in insertion order). *)
    let classes : (string * string list) list ref = ref [] in
    let trace = ref [] in
    let conflicts i rid =
      let vars = List.assoc rid !classes in
      let nbrs = Ugraph.neighbors g i in
      List.exists (fun v -> Ugraph.Iset.mem (idx.Lifetime.to_index v) nbrs) vars
    in
    let snapshot_with rid v =
      List.map
        (fun (r, vars) -> (r, if String.equal r rid then v :: vars else vars))
        !classes
    in
    let choose i =
      Telemetry.incr "regalloc.steps";
      let v = idx.Lifetime.of_index i in
      let nonconf = List.filter (fun (rid, _) -> not (conflicts i rid)) !classes in
      match nonconf with
      | [] ->
        Telemetry.incr "regalloc.fresh_registers";
        let rid = Printf.sprintf "R%d" (List.length !classes + 1) in
        classes := !classes @ [ (rid, [ v ]) ];
        trace := { vertex = v; chosen = rid; fresh = true; reason = "conflict-all" } :: !trace
      | _ ->
        (* CBILBO avoidance: restrict to candidates whose assignment does
           not create a Lemma-2 situation, unless none qualifies. *)
        let safe =
          if not options.cbilbo_avoidance then nonconf
          else
            let baseline =
              Cbilbo_rules.min_cbilbo_count ctx massign dfg ~classes:!classes
            in
            let ok (rid, _) =
              Cbilbo_rules.min_cbilbo_count ctx massign dfg
                ~classes:(snapshot_with rid v)
              <= baseline
            in
            match List.filter ok nonconf with
            | [] -> nonconf
            | l ->
              Telemetry.incr "regalloc.cbilbo_avoided"
                ~by:(List.length nonconf - List.length l);
              l
        in
        let delta (_, vars) =
          Telemetry.incr "regalloc.sd_evals";
          Sharing.delta_sd ctx vars v
        in
        let sd_reg (_, vars) =
          Telemetry.incr "regalloc.sd_evals";
          Sharing.sd_vars ctx vars
        in
        let sd_with (_, vars) =
          Telemetry.incr "regalloc.sd_evals";
          Sharing.sd_vars ctx (v :: vars)
        in
        let aff (_, vars) = affinity ctx vars v in
        (* Primary choice: maximize Delta-SD; ties by register SD, then by
           interconnect affinity, then by creation order (stable). *)
        let rank c = (-delta c, -sd_reg c, -aff c) in
        let best_by_rank = function
          | [] -> invalid_arg "Testable_alloc: empty candidate set"
          | c :: rest ->
            List.fold_left (fun acc c' -> if rank c' < rank acc then c' else acc) c rest
        in
        let ri = best_by_rank safe in
        let ri_final_sd = sd_with ri in
        let case_candidates =
          if not options.case_preferences then []
          else begin
            (* Case 1: v is an output variable of unit M and a register
               already holds an output variable of M. *)
            let case1 =
              Sharing.units ctx
              |> List.filter (fun m -> Sset.mem v (Sharing.out_set ctx m))
              |> List.concat_map (fun m ->
                     List.filter
                       (fun (_, vars) ->
                         List.exists (fun w -> Sset.mem w (Sharing.out_set ctx m)) vars)
                       safe)
            in
            (* Case 2: v is an input variable of unit M and at least two
               registers already hold input variables of M. *)
            let case2 =
              Sharing.units ctx
              |> List.filter (fun m -> Sset.mem v (Sharing.in_set ctx m))
              |> List.concat_map (fun m ->
                     let holders =
                       List.filter
                         (fun (_, vars) ->
                           List.exists (fun w -> Sset.mem w (Sharing.in_set ctx m)) vars)
                         !classes
                     in
                     if List.length holders >= 2 then
                       List.filter
                         (fun (rid, _) -> List.mem_assoc rid holders)
                         safe
                     else [])
            in
            (case1 @ case2)
            |> List.sort_uniq compare
            |> List.filter (fun c ->
                   (not (String.equal (fst c) (fst ri))) && sd_reg c > ri_final_sd)
          end
        in
        let chosen, reason =
          match case_candidates with
          | [] -> (ri, "delta-sd")
          | cs -> (best_by_rank cs, "case-preference")
        in
        let rid = fst chosen in
        classes :=
          List.map
            (fun (r, vars) -> (r, if String.equal r rid then vars @ [ v ] else vars))
            !classes;
        trace := { vertex = v; chosen = rid; fresh = false; reason } :: !trace
    in
    List.iter choose order;
    (Regalloc.make !classes, List.rev !trace)
end

module Allocator = struct
  module Area = Bistpath_datapath.Area
  module Resource = Bistpath_bist.Resource
  module Datapath = Bistpath_datapath.Datapath
  module Massign = Bistpath_dfg.Massign
  module Ipath = Bistpath_ipath.Ipath
  module Listx = Bistpath_util.Listx
  module Telemetry = Bistpath_telemetry.Telemetry
  module Budget = Bistpath_resilience.Budget
  module Cancel = Bistpath_resilience.Cancel
  module Outcome = Bistpath_resilience.Outcome
  module Inject = Bistpath_resilience.Inject

  type solution = Bistpath_bist.Allocator.solution = {
    embeddings : Ipath.embedding list;
    styles : (string * Resource.style) list;
    untestable : string list;
    delta_gates : int;
    exact : bool;
  }

  (* Incremental role state: per register, counts of generate/compact
     duties and of units for which the register does both. The style (and
     hence cost) of a register is a function of this summary only. *)
  type reg_state = {
    mutable gen : int;  (* TPG duties *)
    mutable comp : int;  (* SA duties *)
    mutable both : int;  (* units for which this register is TPG and SA *)
  }

  let style_of_state s =
    if s.both > 0 then Resource.Cbilbo
    else
      match (s.gen > 0, s.comp > 0) with
      | false, false -> Resource.Normal
      | true, false -> Resource.Tpg
      | false, true -> Resource.Sa
      | true, true -> Resource.Bilbo

  type engine = {
    model : Area.model;
    width : int;
    forbidden : Resource.style list;
    penalized : (string, unit) Hashtbl.t;  (* dedicated registers *)
    io_penalty : int;  (* percent, 100 = none *)
    states : (string, reg_state) Hashtbl.t;
    mutable cost : int;
    mutable feasible : int;  (* number of registers in a forbidden style *)
  }

  let state_of eng rid =
    match Hashtbl.find_opt eng.states rid with
    | Some s -> s
    | None ->
      let s = { gen = 0; comp = 0; both = 0 } in
      Hashtbl.replace eng.states rid s;
      s

  let gates eng rid style =
    let base = Resource.delta_gates eng.model ~width:eng.width style in
    if Hashtbl.mem eng.penalized rid then base * eng.io_penalty / 100 else base

  let touch eng rid f =
    let s = state_of eng rid in
    let before = style_of_state s in
    f s;
    let after = style_of_state s in
    eng.cost <- eng.cost - gates eng rid before + gates eng rid after;
    let bad style = List.mem style eng.forbidden in
    eng.feasible <- eng.feasible + (if bad after then 1 else 0) - (if bad before then 1 else 0)

  let apply eng (e : Ipath.embedding) =
    touch eng e.l_tpg (fun s ->
        s.gen <- s.gen + 1;
        if String.equal e.l_tpg e.sa then s.both <- s.both + 1);
    touch eng e.r_tpg (fun s ->
        s.gen <- s.gen + 1;
        if String.equal e.r_tpg e.sa then s.both <- s.both + 1);
    touch eng e.sa (fun s -> s.comp <- s.comp + 1)

  let unapply eng (e : Ipath.embedding) =
    touch eng e.sa (fun s -> s.comp <- s.comp - 1);
    touch eng e.r_tpg (fun s ->
        s.gen <- s.gen - 1;
        if String.equal e.r_tpg e.sa then s.both <- s.both - 1);
    touch eng e.l_tpg (fun s ->
        s.gen <- s.gen - 1;
        if String.equal e.l_tpg e.sa then s.both <- s.both - 1)

  let solve ?(model = Area.default) ?(width = 8) ?(forbidden = [])
      ?(node_budget = 200_000) ?(io_penalty_percent = 100) ?(transparency = false)
      ?(budget = Budget.unlimited) dp =
    let penalized = Hashtbl.create 8 in
    if io_penalty_percent <> 100 then
      List.iter
        (fun (r : Datapath.reg) ->
          if r.Datapath.dedicated then Hashtbl.replace penalized r.Datapath.rid ())
        dp.Datapath.regs;
    let fresh_engine () =
      {
        model;
        width;
        forbidden;
        penalized;
        io_penalty = io_penalty_percent;
        states = Hashtbl.create 16;
        cost = 0;
        feasible = 0;
      }
    in
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
    let eng = fresh_engine () in
    let delta_of e =
      apply eng e;
      let c = eng.cost in
      let ok = eng.feasible = 0 in
      unapply eng e;
      (c, ok)
    in
    (* Order: units with fewest embeddings first; within a unit, embeddings
       sorted by their cost against the empty state (cheap first). *)
    let testable =
      List.filter (fun (_, es) -> es <> []) with_embeddings
      |> List.map (fun (m, es) ->
             let keyed = List.map (fun e -> (fst (delta_of e), e)) es in
             (m, List.map snd (List.sort compare keyed)))
      |> List.sort (fun (_, a) (_, b) -> compare (List.length a) (List.length b))
    in
    let arr = Array.of_list testable in
    let n = Array.length arr in
    (* Greedy warm start: take, per unit in order, the embedding with the
       smallest feasible cost increase. *)
    let greedy = Array.make n None in
    Array.iteri
      (fun i (_, es) ->
        let best = ref None in
        List.iter
          (fun e ->
            let c, ok = delta_of e in
            if ok then
              match !best with
              | Some (bc, _) when bc <= c -> ()
              | _ -> best := Some (c, e))
          es;
        match !best with
        | Some (_, e) ->
          apply eng e;
          greedy.(i) <- Some e
        | None -> ())
      arr;
    let greedy_cost = if Array.exists Option.is_none greedy then max_int else eng.cost in
    (* Reset engine. *)
    Array.iter (function Some e -> unapply eng e | None -> ()) greedy;
    let best_cost = ref greedy_cost in
    let best = ref (if greedy_cost = max_int then None else Some (Array.to_list greedy |> List.filter_map Fun.id)) in
    let chosen = Array.make n None in
    let nodes = ref 0 in
    let exhausted = ref false in
    let rec branch i =
      if !nodes > node_budget || Budget.should_stop budget then exhausted := true
      else if i = n then begin
        Inject.fire "allocator.leaf";
        if eng.feasible = 0 && eng.cost < !best_cost then begin
          best_cost := eng.cost;
          best := Some (Array.to_list chosen |> List.filter_map Fun.id)
        end
      end
      else
        List.iter
          (fun e ->
            if (not !exhausted) && eng.cost < !best_cost then begin
              incr nodes;
              Budget.node budget;
              Telemetry.incr "bist.embeddings_explored";
              apply eng e;
              chosen.(i) <- Some e;
              (* A later embedding can never remove a duty, so a partial
                 already using a forbidden style cannot recover: prune. *)
              if eng.feasible = 0 then branch (i + 1);
              chosen.(i) <- None;
              unapply eng e
            end)
          (snd arr.(i))
    in
    branch 0;
    (* If nothing feasible was found under the constraints, drop units one
       by one (most-embeddings last) until a feasible core remains. *)
    let chosen_embeddings, extra_untestable =
      match !best with
      | Some es -> (es, [])
      | None ->
        let rec shrink dropped lst =
          match lst with
          | [] -> ([], dropped)
          | (mid, _) :: rest ->
            let eng2 = fresh_engine () in
            let ok = ref true in
            let acc = ref [] in
            List.iter
              (fun (_, es) ->
                if !ok then begin
                  let best = ref None in
                  List.iter
                    (fun e ->
                      apply eng2 e;
                      let c = eng2.cost and feas = eng2.feasible = 0 in
                      unapply eng2 e;
                      if feas then
                        match !best with
                        | Some (bc, _) when bc <= c -> ()
                        | _ -> best := Some (c, e)
                    )
                    es;
                  match !best with
                  | Some (_, e) ->
                    apply eng2 e;
                    acc := e :: !acc
                  | None -> ok := false
                end)
              rest;
            if !ok then (List.rev !acc, dropped @ [ mid ])
            else shrink (dropped @ [ mid ]) rest
        in
        shrink [] (Array.to_list arr)
    in
    let embeddings =
      List.sort (fun (a : Ipath.embedding) b -> compare a.mid b.mid) chosen_embeddings
    in
    (* CBILBO-requiring embeddings that were on the table but not picked. *)
    let cbilbos l = List.length (List.filter Ipath.requires_cbilbo l) in
    Telemetry.incr "bist.cbilbos_avoided"
      ~by:
        (max 0
           (cbilbos (List.concat_map snd with_embeddings) - cbilbos embeddings));
    (* Recompute final styles and cost from scratch for reporting. *)
    let eng3 = fresh_engine () in
    List.iter (apply eng3) embeddings;
    let styles =
      List.map
        (fun (r : Datapath.reg) ->
          let style =
            match Hashtbl.find_opt eng3.states r.rid with
            | Some s -> style_of_state s
            | None -> Resource.Normal
          in
          (r.rid, style))
        dp.Datapath.regs
    in
    {
      embeddings;
      styles;
      untestable = List.sort compare (untestable @ extra_untestable);
      delta_gates = eng3.cost;
      exact = not !exhausted;
    }
end
