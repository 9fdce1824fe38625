module Lifetime = Bistpath_dfg.Lifetime
module Chordal = Bistpath_graphs.Chordal
module Ugraph = Bistpath_graphs.Ugraph
module Regalloc = Bistpath_datapath.Regalloc
module Telemetry = Bistpath_telemetry.Telemetry

type options = {
  sd_ordering : bool;
  case_preferences : bool;
  cbilbo_avoidance : bool;
}

let default_options =
  { sd_ordering = true; case_preferences = true; cbilbo_avoidance = true }

type trace_step = {
  vertex : string;
  chosen : string;
  fresh : bool;
  reason : string;
}

let allocate ?(options = default_options) dfg massign ~policy =
  let g, idx = Lifetime.conflict_graph ~policy dfg in
  let ctx = Sharing.make dfg massign in
  let n = idx.Lifetime.count in
  let name = idx.Lifetime.of_index in
  (* Vertex i holds Sharing variable var_of.(i). *)
  let var_of = Array.init n (fun i -> Option.get (Sharing.var_id ctx (name i))) in
  let adj = Array.init n (fun i -> Ugraph.Iset.elements (Ugraph.neighbors g i)) in
  let mcs = Array.make n 1 in
  List.iter (fun (i, m) -> mcs.(i) <- m) (Chordal.max_clique_size_per_vertex g);
  let sd_of = Array.init n (fun i -> Sharing.sd_var ctx (name i)) in
  let prefer u v =
    if not options.sd_ordering then 0
    else
      match Int.compare sd_of.(u) sd_of.(v) with
      | 0 -> (
        match Int.compare mcs.(u) mcs.(v) with
        | 0 -> String.compare (name u) (name v)
        | c -> c)
      | c -> c
  in
  let order = List.rev (Chordal.peo_with_preference g ~prefer) in
  (* Registers are ints in creation order, named R1..Rk. Per (register,
     unit) hit counts make Delta-SD, register SD, affinity and the
     Lemma-2 summaries O(units) per candidate. *)
  let nu = Sharing.unit_count ctx in
  let ni = Sharing.instance_count ctx in
  let nregs = ref 0 in
  let reg_name = Array.init n (fun r -> Printf.sprintf "R%d" (r + 1)) in
  let by_name a b = String.compare reg_name.(a) reg_name.(b) in
  let reg_vars = Array.make n [] in  (* reversed *)
  let reg_of = Array.make n (-1) in
  let in_hit = Array.make (n * nu) 0 and out_hit = Array.make (n * nu) 0 in
  let src_hit = Array.make (n * nu) 0 in
  let sd = Array.make n 0 in
  (* Lemma-2 state: instances each register meets, per unit; registers
     holding an I_M variable; O_M variables placed and the registers
     holding them; each unit's cached offer to the greedy cover. *)
  let op_hit = Array.make (n * ni) false in
  let inst_cov = Array.make (n * nu) 0 in
  let in_holders = Array.make nu 0 in
  let assigned = Array.make nu 0 in
  let holders = Array.make nu [] in
  let offers = Array.make nu [] in
  let baseline = ref 0 in
  let sd_evals = ref 0 and lemma2_evals = ref 0 in
  let covers r m = inst_cov.((r * nu) + m) = Sharing.multiplicity ctx m in
  let offer_now m =
    incr lemma2_evals;
    Cbilbo_rules.offer ~out_size:(Sharing.out_size ctx m) ~assigned:assigned.(m)
      ~covers:(fun h -> covers h m) holders.(m)
  in
  (* Unit m's offer were variable v merged into register r. *)
  let offer_with r v m =
    incr lemma2_evals;
    let is_out = Array.mem m (Sharing.out_units ctx v) in
    let covers h =
      if h <> r then covers h m
      else begin
        let c = ref inst_cov.((r * nu) + m) in
        Array.iter
          (fun j ->
            if Sharing.instance_unit ctx j = m && not op_hit.((r * ni) + j) then incr c)
          (Sharing.var_instances ctx v);
        !c = Sharing.multiplicity ctx m
      end
    in
    let hs = if is_out && out_hit.((r * nu) + m) = 0 then r :: holders.(m) else holders.(m) in
    Cbilbo_rules.offer ~out_size:(Sharing.out_size ctx m)
      ~assigned:(if is_out then assigned.(m) + 1 else assigned.(m))
      ~covers hs
  in
  (* min_cbilbo_count of the assignment with v merged into r: only the
     units whose I/O sets contain v can change their offer. *)
  let count_with r v =
    let changed =
      Array.fold_left
        (fun acc m ->
          let o = offer_with r v m in
          if o <> offers.(m) then (m, o) :: acc else acc)
        [] (Sharing.module_units ctx v)
    in
    if changed = [] then !baseline
    else
      Cbilbo_rules.greedy_cover ~compare:by_name
        (List.init nu (fun m ->
             match List.assoc_opt m changed with Some o -> o | None -> offers.(m)))
  in
  let commit i r =
    let v = var_of.(i) in
    reg_of.(i) <- r;
    reg_vars.(r) <- name i :: reg_vars.(r);
    let base = r * nu in
    Array.iter
      (fun m ->
        if in_hit.(base + m) = 0 then begin
          sd.(r) <- sd.(r) + 1;
          in_holders.(m) <- in_holders.(m) + 1
        end;
        in_hit.(base + m) <- in_hit.(base + m) + 1)
      (Sharing.in_units ctx v);
    Array.iter
      (fun m ->
        if out_hit.(base + m) = 0 then begin
          sd.(r) <- sd.(r) + 1;
          holders.(m) <- r :: holders.(m)
        end;
        out_hit.(base + m) <- out_hit.(base + m) + 1;
        assigned.(m) <- assigned.(m) + 1)
      (Sharing.out_units ctx v);
    Array.iter (fun u -> src_hit.(base + u) <- src_hit.(base + u) + 1) (Sharing.src_units ctx v);
    Array.iter
      (fun j ->
        if not op_hit.((r * ni) + j) then begin
          op_hit.((r * ni) + j) <- true;
          let m = Sharing.instance_unit ctx j in
          inst_cov.(base + m) <- inst_cov.(base + m) + 1
        end)
      (Sharing.var_instances ctx v);
    if options.cbilbo_avoidance then begin
      let changed = ref false in
      Array.iter
        (fun m ->
          let o = offer_now m in
          if o <> offers.(m) then begin
            offers.(m) <- o;
            changed := true
          end)
        (Sharing.module_units ctx v);
      if !changed then
        baseline := Cbilbo_rules.greedy_cover ~compare:by_name (Array.to_list offers)
    end
  in
  let trace = ref [] in
  let conflict = Array.make n (-1) in
  let choose i =
    Telemetry.incr "regalloc.steps";
    let v = var_of.(i) in
    List.iter (fun j -> if reg_of.(j) >= 0 then conflict.(reg_of.(j)) <- i) adj.(i);
    let nonconf = List.filter (fun r -> conflict.(r) <> i) (List.init !nregs Fun.id) in
    match nonconf with
    | [] ->
      Telemetry.incr "regalloc.fresh_registers";
      let r = !nregs in
      incr nregs;
      commit i r;
      trace :=
        { vertex = name i; chosen = reg_name.(r); fresh = true; reason = "conflict-all" }
        :: !trace
    | _ ->
      (* CBILBO avoidance: restrict to candidates whose assignment does
         not create a Lemma-2 situation, unless none qualifies. *)
      let safe =
        if not options.cbilbo_avoidance then nonconf
        else
          match List.filter (fun r -> count_with r v <= !baseline) nonconf with
          | [] -> nonconf
          | l ->
            Telemetry.incr "regalloc.cbilbo_avoided"
              ~by:(List.length nonconf - List.length l);
            l
      in
      let ins = Sharing.in_units ctx v and outs = Sharing.out_units ctx v in
      (* How many of the given units register r already meets. *)
      let meets units hit r =
        Array.fold_left (fun k m -> if hit.((r * nu) + m) > 0 then k + 1 else k) 0 units
      in
      let delta r =
        Array.length ins - meets ins in_hit r + Array.length outs - meets outs out_hit r
      in
      (* Interconnect affinity (the paper's final tie-break "taking into
         consideration the effect of the assignment on interconnect
         cost"): merging v into a register whose variables share source
         or destination units avoids new multiplexer inputs (Fig. 6
         cases 3-5). A variable's destination units are the units whose
         I_M holds it, so in_hit doubles as the destination count. *)
      let aff r = meets (Sharing.src_units ctx v) src_hit r + meets ins in_hit r in
      (* Primary choice: maximize Delta-SD; ties by register SD, then by
         interconnect affinity, then by list order (stable). Each
         comparison counts four SD evaluations, as ranking both sides
         reads Delta-SD and register SD. *)
      let best_by_rank = function
        | [] -> invalid_arg "Testable_alloc: empty candidate set"
        | c :: rest ->
          sd_evals := !sd_evals + (4 * List.length rest);
          let key r = (delta r, sd.(r), aff r) in
          fst
            (List.fold_left
               (fun (b, kb) c -> let kc = key c in if kc > kb then (c, kc) else (b, kb))
               (c, key c) rest)
      in
      let ri = best_by_rank safe in
      incr sd_evals;
      let ri_final_sd = sd.(ri) + delta ri in
      let case_candidates =
        if not options.case_preferences then []
        else begin
          (* Case 1: v is an output variable of unit M and a register
             already holds an output variable of M. *)
          let case1 =
            Array.to_list outs
            |> List.concat_map (fun m -> List.filter (fun r -> out_hit.((r * nu) + m) > 0) safe)
          in
          (* Case 2: v is an input variable of unit M and at least two
             registers already hold input variables of M. *)
          let case2 =
            Array.to_list ins
            |> List.concat_map (fun m ->
                   if in_holders.(m) >= 2 then
                     List.filter (fun r -> in_hit.((r * nu) + m) > 0) safe
                   else [])
          in
          (case1 @ case2)
          |> List.sort_uniq by_name
          |> List.filter (fun r ->
                 r <> ri
                 && begin
                   incr sd_evals;
                   sd.(r) > ri_final_sd
                 end)
        end
      in
      let chosen, reason =
        match case_candidates with
        | [] -> (ri, "delta-sd")
        | cs -> (best_by_rank cs, "case-preference")
      in
      commit i chosen;
      trace := { vertex = name i; chosen = reg_name.(chosen); fresh = false; reason } :: !trace
  in
  List.iter choose order;
  if !sd_evals > 0 then Telemetry.incr "regalloc.sd_evals" ~by:!sd_evals;
  if !lemma2_evals > 0 then Telemetry.incr "regalloc.lemma2_evals" ~by:!lemma2_evals;
  let classes = List.init !nregs (fun r -> (reg_name.(r), List.rev reg_vars.(r))) in
  (Regalloc.make classes, List.rev !trace)
