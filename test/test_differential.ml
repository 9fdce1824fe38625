(* Differential oracle for the integer-indexed allocation searches: the
   library's testable register allocation, Lemma-2 checks and BIST
   branch-and-bound must reproduce the reference copies in
   Reference_alloc decision for decision — same classes, same trace,
   same solution, same counters — on every built-in tag, every shipped
   data/*.dfg, the fir ladder and random designs. *)

module Dfg = Bistpath_dfg.Dfg
module Parser = Bistpath_dfg.Parser
module Policy = Bistpath_dfg.Policy
module Prng = Bistpath_util.Prng
module B = Bistpath_benchmarks.Benchmarks
module Regalloc = Bistpath_datapath.Regalloc
module Sharing = Bistpath_core.Sharing
module Cbilbo_rules = Bistpath_core.Cbilbo_rules
module Testable_alloc = Bistpath_core.Testable_alloc
module Module_assign = Bistpath_core.Module_assign
module Flow = Bistpath_core.Flow
module Allocator = Bistpath_bist.Allocator
module Resource = Bistpath_bist.Resource
module Telemetry = Bistpath_telemetry.Telemetry
module Ugraph = Bistpath_graphs.Ugraph
module Interval = Bistpath_graphs.Interval
module Chordal = Bistpath_graphs.Chordal
module Ref = Reference_alloc

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let data_dir =
  let up = Filename.concat Filename.parent_dir_name "data" in
  if Sys.file_exists up then up else "data"

let data_instances () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dfg")
  |> List.sort compare
  |> List.map (fun f ->
         match Parser.parse_file (Filename.concat data_dir f) with
         | Error e -> Alcotest.fail e
         | Ok u -> (
           match Parser.to_dfg u with
           | Error e -> Alcotest.fail e
           | Ok dfg ->
             {
               B.tag = "data/" ^ f;
               dfg;
               massign = Module_assign.single_function dfg;
               policy = Policy.default;
             }))

let tag_instance tag =
  match B.by_tag tag with Some i -> i | None -> Alcotest.fail ("unknown tag " ^ tag)

let counters_without name r = List.remove_assoc name (Telemetry.counters r)

let all_options =
  List.concat_map
    (fun sd_ordering ->
      List.concat_map
        (fun case_preferences ->
          List.map
            (fun cbilbo_avoidance ->
              { Testable_alloc.sd_ordering; case_preferences; cbilbo_avoidance })
            [ true; false ])
        [ true; false ])
    [ true; false ]

(* Regalloc: classes, trace and counters equal; the string-level Lemma-2
   API equal on every prefix of the allocation when [prefixes]. *)
let same_regalloc ?(prefixes = false) ~options (inst : B.instance) =
  let label = inst.B.tag in
  let (ra, trace), got =
    Telemetry.collect (fun () ->
        Testable_alloc.allocate ~options inst.B.dfg inst.B.massign ~policy:inst.B.policy)
  in
  let (ra', trace'), want =
    Telemetry.collect (fun () ->
        Ref.Testable_alloc.allocate ~options inst.B.dfg inst.B.massign
          ~policy:inst.B.policy)
  in
  if ra.Regalloc.classes <> ra'.Regalloc.classes then
    Alcotest.failf "%s: register classes differ" label;
  if trace <> trace' then Alcotest.failf "%s: decision trace differs" label;
  if counters_without "regalloc.lemma2_evals" got <> Telemetry.counters want then
    Alcotest.failf "%s: regalloc counters differ" label;
  let ctx = Sharing.make inst.B.dfg inst.B.massign in
  let ctx' = Ref.Sharing.make inst.B.dfg inst.B.massign in
  let same_lemma classes =
    List.iter
      (fun mid ->
        let v = Cbilbo_rules.check_module ctx ~mid ~classes in
        let v' = Ref.Cbilbo_rules.check_module ctx' inst.B.massign inst.B.dfg ~mid ~classes in
        if
          v.Cbilbo_rules.case_i <> v'.Ref.Cbilbo_rules.case_i
          || v.Cbilbo_rules.case_ii <> v'.Ref.Cbilbo_rules.case_ii
        then Alcotest.failf "%s/%s: Lemma-2 verdict differs" label mid)
      (Sharing.units ctx);
    if
      Cbilbo_rules.min_cbilbo_count ctx ~classes
      <> Ref.Cbilbo_rules.min_cbilbo_count ctx' inst.B.massign inst.B.dfg ~classes
    then Alcotest.failf "%s: min_cbilbo_count differs" label
  in
  same_lemma ra.Regalloc.classes;
  if prefixes then
    ignore
      (List.fold_left
         (fun classes (s : Testable_alloc.trace_step) ->
           let classes =
             if s.Testable_alloc.fresh then classes @ [ (s.chosen, [ s.vertex ]) ]
             else
               List.map
                 (fun (r, vs) -> (r, if String.equal r s.chosen then vs @ [ s.vertex ] else vs))
                 classes
           in
           same_lemma classes;
           classes)
         [] trace)

let solve_params =
  List.concat_map
    (fun forbidden ->
      List.concat_map
        (fun io ->
          List.concat_map
            (fun budget ->
              List.map (fun transparency -> (forbidden, io, budget, transparency)) [ false; true ])
            [ Some 10; Some 1000; None ])
        [ 100; 150 ])
    [ []; [ Resource.Cbilbo ]; [ Resource.Bilbo; Resource.Cbilbo ] ]

let same_solve label dp (forbidden, io, budget, transparency) =
  let sol, got =
    Telemetry.collect (fun () ->
        Allocator.solve ~forbidden ?node_budget:budget ~io_penalty_percent:io ~transparency dp)
  in
  let sol', want =
    Telemetry.collect (fun () ->
        Ref.Allocator.solve ~forbidden ?node_budget:budget ~io_penalty_percent:io ~transparency
          dp)
  in
  let what =
    Printf.sprintf "%s [forbid %d, io %d, budget %s, transparency %b]" label
      (List.length forbidden) io
      (match budget with Some b -> string_of_int b | None -> "default")
      transparency
  in
  if sol.Allocator.embeddings <> sol'.Allocator.embeddings then
    Alcotest.failf "%s: embeddings differ" what;
  if sol.Allocator.styles <> sol'.Allocator.styles then Alcotest.failf "%s: styles differ" what;
  if sol.Allocator.untestable <> sol'.Allocator.untestable then
    Alcotest.failf "%s: untestable differ" what;
  if sol.Allocator.delta_gates <> sol'.Allocator.delta_gates then
    Alcotest.failf "%s: delta_gates %d vs %d" what sol.Allocator.delta_gates
      sol'.Allocator.delta_gates;
  if sol.Allocator.exact <> sol'.Allocator.exact then Alcotest.failf "%s: exact differs" what;
  if Telemetry.counters got <> Telemetry.counters want then
    Alcotest.failf "%s: bist counters differ" what

let datapath style (inst : B.instance) =
  (Flow.run ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy).Flow.datapath

let testable = Flow.Testable Testable_alloc.default_options

let full_matrix ?(prefixes = true) ~styles (inst : B.instance) =
  List.iter (fun options -> same_regalloc ~prefixes ~options inst) all_options;
  List.iter
    (fun style ->
      let dp = datapath style inst in
      List.iter (same_solve inst.B.tag dp) solve_params)
    styles

let tags () =
  List.iter
    (fun tag -> full_matrix ~styles:[ testable; Flow.Traditional ] (tag_instance tag))
    B.all_tags

let data_files () =
  List.iter (full_matrix ~styles:[ testable; Flow.Traditional ]) (data_instances ())

(* The reference search scans every remaining sibling after a prune, so
   a default-budget transparent solve takes it about 3 s per cell on
   fir16, 20 s on fir32 and longer on fir48. fir16 runs every cell: its
   default-budget transparent solves already end on the node budget, the
   regime of the larger sizes. fir32 and fir48 skip those cells. *)
let fir_ladder () =
  List.iter
    (fun tag ->
      let inst = tag_instance tag in
      same_regalloc ~options:Testable_alloc.default_options inst;
      let dp = datapath testable inst in
      List.iter (same_solve tag dp)
        (List.filter
           (fun (_, _, budget, transparency) ->
             tag = "fir16" || budget <> None || not transparency)
           solve_params))
    [ "fir16"; "fir32"; "fir48" ]

(* Random designs of 8-64 ops: default options plus one drawn option set
   for regalloc, the default solve plus one drawn parameter set. *)
let prop_random =
  QCheck.Test.make ~name:"random designs match the reference" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let ops = 8 + Prng.int rng 57 in
      let inst = B.random rng ~ops ~inputs:(2 + Prng.int rng 4) in
      let inst = { inst with B.tag = Printf.sprintf "random(seed %d, %d ops)" seed ops } in
      let pick l = List.nth l (Prng.int rng (List.length l)) in
      same_regalloc ~prefixes:(ops <= 24) ~options:Testable_alloc.default_options inst;
      same_regalloc ~options:(pick all_options) inst;
      let dp = datapath testable inst in
      same_solve inst.B.tag dp ([], 100, None, false);
      same_solve inst.B.tag dp (pick solve_params);
      true)

(* Chordal routines on interval graphs (chordal) and on random graphs
   (mostly not): same PEO, same clique sizes, same verdicts, same
   failures; is_peo agrees on shuffled orders too. *)
let prop_chordal =
  QCheck.Test.make ~name:"chordal routines match the reference" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let n = 1 + Prng.int rng 40 in
      let g =
        if Prng.int rng 2 = 0 then
          Interval.graph (Interval.random rng ~n ~horizon:(2 + Prng.int rng 30))
        else
          let edges = ref [] in
          for u = 0 to n - 1 do
            for v = u + 1 to n - 1 do
              if Prng.int rng 4 = 0 then edges := (u, v) :: !edges
            done
          done;
          Ugraph.of_edges ~vertices:(List.init n Fun.id) !edges
      in
      let attempt f = try Ok (f ()) with Failure m -> Error m in
      let prefer u v = compare (Ugraph.degree g u, u mod 3) (Ugraph.degree g v, v mod 3) in
      let shuffled =
        List.map (fun v -> (Prng.int rng 1000, v)) (Ugraph.vertices g)
        |> List.sort compare |> List.map snd
      in
      attempt (fun () -> Chordal.peo_with_preference g ~prefer)
      = attempt (fun () -> Ref.Chordal.peo_with_preference g ~prefer)
      && attempt (fun () -> Chordal.max_clique_size_per_vertex g)
         = attempt (fun () -> Ref.Chordal.max_clique_size_per_vertex g)
      && attempt (fun () -> Chordal.maximal_cliques g)
         = attempt (fun () -> Ref.Chordal.maximal_cliques g)
      && Chordal.is_chordal g = Ref.Chordal.is_peo g (List.rev (Chordal.mcs_order g))
      && Chordal.is_peo g shuffled = Ref.Chordal.is_peo g shuffled
      && Chordal.is_peo g (List.rev (Chordal.mcs_order g))
         = Ref.Chordal.is_peo g (List.rev (Chordal.mcs_order g)))

(* The incremental Lemma-2 filter re-evaluates only the units whose I/O
   sets hold the placed variable, far below re-running every unit for
   every candidate at every step. *)
let lemma2_evals_incremental () =
  let inst = tag_instance "fir32" in
  let (ra, _), r =
    Telemetry.collect (fun () ->
        Testable_alloc.allocate inst.B.dfg inst.B.massign ~policy:inst.B.policy)
  in
  let evals = Telemetry.counter r "regalloc.lemma2_evals" in
  let steps = Telemetry.counter r "regalloc.steps" in
  let candidates = Regalloc.num_registers ra in
  let units = List.length (Sharing.units (Sharing.make inst.B.dfg inst.B.massign)) in
  check Alcotest.bool "some Lemma-2 evaluations" true (evals > 0);
  check Alcotest.bool
    (Printf.sprintf "lemma2_evals %d < steps %d x candidates %d x units %d" evals steps
       candidates units)
    true
    (evals < steps * candidates * units)

let suite =
  [
    case "built-in tags, all options and solve parameters" tags;
    case "data/*.dfg, all options and solve parameters" data_files;
    case "fir16-fir48 ladder" fir_ladder;
    case "lemma2_evals stays incremental on fir32" lemma2_evals_incremental;
    QCheck_alcotest.to_alcotest prop_random;
    QCheck_alcotest.to_alcotest prop_chordal;
  ]
