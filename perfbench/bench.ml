(* In-process workloads of the repository benchmark (see README.md in
   this directory). Run by run.py; prints one JSON object on the last
   line of stdout.

     bench.exe run --workload W --seed N --seconds S --trace 0|1 --jobs J [--passes P]
     bench.exe gen --seed N --dir D --count C --ops-lo A --ops-hi B --prefix P

   [run] sets the workload up [setup_reps] times, each ending with a few
   small warm-up items (the median is [setup_s]), then runs complete
   passes over the workload's items in a seeded order until another pass
   would overrun [--seconds]. It reads data/ from the working directory,
   the root of the checkout. Each item is a sequence of calls into the
   bistpath layers; only those calls are timed for the item's latency,
   and the item's oracle runs afterwards. [items_per_s] is items over the
   passes' wall time, which also covers the garbage collection an item's
   allocations cause after it returns. With [--trace 1] every item runs
   twice back to back, untraced and then traced: the traced run records
   a benchmark span around each layer call, imports the spans and
   counters the program records itself (Telemetry.collect), and writes
   them all to the [--trace-out] file, which run.py summarizes; the
   per-item time difference is the tracing overhead.

   [gen] writes seeded random scheduled designs as DFG text, the inputs
   of the job-stream workload. *)

module B = Bistpath_benchmarks.Benchmarks
module Flow = Bistpath_core.Flow
module Testable_alloc = Bistpath_core.Testable_alloc
module Module_assign = Bistpath_core.Module_assign
module Telemetry = Bistpath_telemetry.Telemetry
module Pool = Bistpath_parallel.Pool
module Dfg = Bistpath_dfg.Dfg
module Eval = Bistpath_dfg.Eval
module Dparser = Bistpath_dfg.Parser
module Policy = Bistpath_dfg.Policy
module Massign = Bistpath_dfg.Massign
module Control = Bistpath_datapath.Control
module Verilog = Bistpath_rtl.Verilog
module Rparser = Bistpath_rtl.Parser
module Equiv = Bistpath_rtl.Equiv
module Check = Bistpath_check.Check
module Absint = Bistpath_absint.Absint
module Interval = Bistpath_absint.Interval
module Bist_sim = Bistpath_gatelevel.Bist_sim
module Podem = Bistpath_gatelevel.Podem
module Library = Bistpath_gatelevel.Library
module Fault = Bistpath_gatelevel.Fault
module Pareto = Bistpath_bist.Pareto
module Allocator = Bistpath_bist.Allocator
module Resource = Bistpath_bist.Resource
module Prng = Bistpath_util.Prng
module Diagnostic = Bistpath_resilience.Diagnostic

let width = 8
let testable = Flow.Testable Testable_alloc.default_options

(* ---------------------------------------------------------------- *)
(* Items *)

type verdict = {
  ok : bool;
  why : string;  (** first oracle miss, "" when ok *)
  digest : string;  (** of the item's outputs *)
  counts : (string * float) list;  (** deterministic work counts *)
}

(* Random designs are drawn for at most this many passes; later passes
   reuse them. *)
let max_passes = 32

type item = {
  id : int;
  label : string;
  ops : int;
  exec : unit -> unit -> verdict;
      (** the timed layer calls; returns the untimed oracle *)
}

(* Quality of one testable flow: the Table I figures. *)
type quality = { area_pct : float; cbilbos : int; regs : int; muxes : int }

let quality_of (r : Flow.result) =
  {
    area_pct = r.Flow.overhead_percent;
    cbilbos =
      List.length
        (List.filter (fun (_, s) -> s = Resource.Cbilbo) r.Flow.bist.Allocator.styles);
    regs = r.Flow.registers;
    muxes = r.Flow.muxes;
  }

let span = Span.with_span
let flow ~item ?(style = testable) (inst : B.instance) =
  span ~item "core.flow" (fun () ->
      Flow.run ~width ~style inst.B.dfg inst.B.massign ~policy:inst.B.policy)

let fail why = { ok = false; why; digest = ""; counts = [] }
let md5 s = Digest.to_hex (Digest.string s)
let ops_of (inst : B.instance) = List.length inst.B.dfg.Dfg.ops

let random_instance rng ~ops =
  let inst = B.random (Prng.split rng) ~ops ~inputs:(max 4 (ops / 6)) in
  { inst with B.tag = Printf.sprintf "rand%d" ops }

let bist_counts (r : Flow.result) =
  [ ("bist.solves", 1.0); ("bist.exact", if r.Flow.bist.Allocator.exact then 1.0 else 0.0) ]

(* ---------------------------------------------------------------- *)
(* alloc-ladder: Flow.run in both styles, then Verilog.emit. One item is
   one design in one style, so a 20 s run has enough samples for its
   tail. *)

let ladder_taps = [ 16; 24; 32; 40; 48 ]
let ladder_random_ops = [ 24; 32; 40; 48; 56; 64 ]

let alloc_item id (inst : B.instance) testable_style =
  let exec () =
    let r = flow ~item:id ~style:(if testable_style then testable else Flow.Traditional) inst in
    let bist = if testable_style then Some r.Flow.bist else None in
    let v = span ~item:id "rtl.emit" (fun () -> Verilog.emit ~width ?bist r.Flow.datapath) in
    fun () ->
      if not (Oracle.dfg_vs_datapath ~seed:id ~n:4 ~width inst.B.dfg r.Flow.datapath) then
        fail "data path differs from the DFG"
      else
        {
          ok = true;
          why = "";
          digest = md5 v;
          counts = ("rtl.emit_bytes", float_of_int (String.length v)) :: bist_counts r;
        }
  in
  let style = if testable_style then "testable" else "traditional" in
  { id; label = inst.B.tag ^ "/" ^ style; ops = ops_of inst; exec }

(* Both styles of one design: ids [2 * n] and [2 * n + 1]. *)
let alloc_items n inst = [ alloc_item (2 * n) inst true; alloc_item ((2 * n) + 1) inst false ]

(* Pass [k] draws its own random designs, one per size, so a run averages
   over many structures and the seed moves the workload's cost little. *)
let random_sets ~seed ~sizes =
  let rng = Prng.create seed in
  Array.init max_passes (fun _ -> List.map (fun ops -> random_instance rng ~ops) sizes)

(* ---------------------------------------------------------------- *)
(* signoff: flow with BIST, emit, parse back, Equiv, Check, Absint and
   one seeded mutant. *)

let signoff_random_ops = [ 8; 12; 16; 20; 24 ]

(* Small shipped designs: data/fir32.dfg is a stress input, not sign-off
   material. *)
let signoff_data_skip = [ "fir32.dfg" ]

let load_dfg ~item path =
  span ~item "dfg.parse" (fun () ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      let u, diags = Dparser.parse_string_diags text in
      if List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.severity = Diagnostic.Error) diags
      then failwith ("unparsable " ^ path)
      else
        match Dparser.to_dfg_diags u with
        | Ok dfg ->
          {
            B.tag = "data/" ^ Filename.basename path;
            dfg;
            massign = Module_assign.single_function dfg;
            policy = Policy.default;
          }
        | Error _ -> failwith ("invalid " ^ path))

let signoff_item ~seed id (inst : B.instance) =
  let exec () =
    let r = flow ~item:id inst in
    let dp = r.Flow.datapath in
    let rtl =
      span ~item:id "rtl.emit" (fun () ->
          Verilog.primitives ~width ^ "\n" ^ Verilog.emit ~width ~bist:r.Flow.bist dp ^ "\n")
    in
    let ast = span ~item:id "rtl.parse" (fun () -> Rparser.parse rtl) in
    let eq = span ~item:id "rtl.equiv" (fun () -> Equiv.verify ~width ~bist:r.Flow.bist ~rtl dp) in
    let ctx =
      span ~item:id "check.ctx" (fun () ->
          Check.ctx_of_flow ~vectors:10 ~design:inst.B.tag ~width inst.B.dfg inst.B.massign
            ~policy:inst.B.policy r)
    in
    let rep = span ~item:id "check.rules" (fun () -> Check.run ctx) in
    let control = span ~item:id "datapath.control" (fun () -> Control.build dp) in
    let ranges, plan =
      span ~item:id "absint.solve" (fun () ->
          let ranges = Absint.solve_dfg ~width ~policy:inst.B.policy inst.B.dfg in
          (ranges, Absint.narrow_plan ~width dp control))
    in
    let mutant = Oracle.drop_assign ~seed:(seed + id) rtl in
    let mverdict =
      Option.map
        (fun m -> span ~item:id "rtl.equiv" (fun () -> Equiv.verify ~width ~bist:r.Flow.bist ~rtl:m dp))
        mutant
    in
    fun () ->
      let caught =
        match mverdict with
        | None -> false
        | Some (Error _) -> true
        | Some (Ok e) -> e.Equiv.structural <> [] || e.Equiv.functional <> None
      in
      let counts =
        [
          ("rtl.emit_bytes", float_of_int (String.length rtl));
          ("rtl.equiv_vectors", match eq with Ok e -> float_of_int e.Equiv.vectors_run | Error _ -> 0.0);
          ("rtl.mutants", 1.0);
          ("rtl.mutants_caught", if caught then 1.0 else 0.0);
          ("check.error_findings", float_of_int (Check.errors rep));
        ]
        @ bist_counts r
      in
      let fail why = { (fail why) with counts } in
      let clean =
        match eq with
        | Ok e -> e.Equiv.structural = [] && e.Equiv.functional = None
        | Error _ -> false
      in
      let rng = Prng.create (seed + id) in
      let in_ranges () =
        let inputs = Oracle.vector rng ~width inst.B.dfg in
        List.for_all
          (fun (x, v) ->
            match List.assoc_opt x ranges.Absint.env with
            | Some iv -> Interval.mem v iv
            | None -> false)
          (Eval.run_all inst.B.dfg ~width ~inputs)
      in
      if Rparser.errors ast <> [] then fail "emitted RTL does not parse"
      else if not clean then fail "Equiv rejects the emitted RTL"
      else if Check.errors rep > 0 then fail "Check reports error findings"
      else if not (Oracle.dfg_vs_datapath ~seed:id ~n:8 ~width inst.B.dfg dp) then
        fail "data path differs from the DFG"
      else if not (in_ranges () && in_ranges ()) then fail "a value escapes its absint range"
      else if not caught then fail "Equiv accepts a dropped-assign mutant"
      else
        {
          ok = true;
          why = "";
          digest = md5 (rtl ^ Check.to_text rep ^ string_of_int plan.Absint.saved_bits);
          counts;
        }
  in
  { id; label = inst.B.tag; ops = ops_of inst; exec }

let signoff_setup ~seed =
  let tags = List.filter_map B.by_tag B.all_tags in
  let dir = "data" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dfg" && not (List.mem f signoff_data_skip))
    |> List.sort compare
  in
  let data = List.map (fun f -> load_dfg ~item:(-1) (Filename.concat dir f)) files in
  (tags @ data, random_sets ~seed ~sizes:signoff_random_ops)

(* ---------------------------------------------------------------- *)
(* bist-grade: gate-level coverage, PODEM and the Pareto front. One item
   is one design through one of the three commands. *)

let grade_tags = [ "Tseng2"; "ex2"; "Tseng1"; "Paulin"; "ewf"; "fir16" ]
let podem_backtracks = 100

let circuit_of = function [ k ] -> Library.of_kind k ~width | ks -> Library.alu ks ~width

let grade_item ~seed id (inst : B.instance) cmd =
  let exec () =
    let r = flow ~item:id inst in
    let dp = r.Flow.datapath in
    match cmd with
    | `Coverage ->
      let rep =
        span ~item:id "gatelevel.bist_sim" (fun () ->
            Bist_sim.run ~width ~pattern_count:255 dp r.Flow.bist)
      in
      fun () ->
        let sane (u : Bist_sim.unit_report) =
          u.Bist_sim.faults_total > 0
          && u.Bist_sim.faults_detected <= u.Bist_sim.faults_total
          && u.Bist_sim.skipped = 0
          && Float.abs
               (u.Bist_sim.coverage
               -. float_of_int u.Bist_sim.faults_detected /. float_of_int u.Bist_sim.faults_total)
             < 1e-9
        in
        if rep.Bist_sim.units = [] || not (List.for_all sane rep.Bist_sim.units) then
          fail "inconsistent BIST coverage report"
        else
          let total = List.fold_left (fun a u -> a + u.Bist_sim.faults_total) 0 rep.Bist_sim.units in
          let det = List.fold_left (fun a u -> a + u.Bist_sim.faults_detected) 0 rep.Bist_sim.units in
          {
            ok = true;
            why = "";
            digest = Format.asprintf "%a" Bist_sim.pp rep |> md5;
            counts =
              [ ("gatelevel.faults_graded", float_of_int total);
                ("gatelevel.faults_detected", float_of_int det) ]
              @ bist_counts r;
          }
    | `Atpg ->
      let circuits =
        List.map (fun (u : Massign.hw) -> u.Massign.kinds) inst.B.massign.Massign.units
        |> List.sort_uniq compare |> List.map circuit_of
      in
      let classes =
        List.map
          (fun c ->
            (c, span ~item:id "gatelevel.podem" (fun () -> Podem.classify_all ~max_backtracks:podem_backtracks c)))
          circuits
      in
      fun () ->
        let rng = Prng.create (seed + id) in
        let check (c, (cl : Podem.classification)) =
          let n = List.length in
          let faults = n (Fault.collapsed c) in
          let tested = Array.of_list cl.Podem.tested in
          let sample =
            List.init (min 16 (Array.length tested)) (fun _ ->
                tested.(Prng.int rng (Array.length tested)))
          in
          n cl.Podem.tested + n cl.Podem.untestable + n cl.Podem.aborted + n cl.Podem.skipped = faults
          && cl.Podem.skipped = []
          && List.for_all (fun (f, bits) -> Oracle.detects c f bits) sample
        in
        if not (List.for_all check classes) then fail "PODEM vector does not detect its fault"
        else
          let sum f = float_of_int (List.fold_left (fun a (_, cl) -> a + f cl) 0 classes) in
          {
            ok = true;
            why = "";
            digest =
              md5
                (String.concat ";"
                   (List.map
                      (fun (_, (cl : Podem.classification)) ->
                        Printf.sprintf "%d/%d/%d" (List.length cl.Podem.tested)
                          (List.length cl.Podem.untestable) (List.length cl.Podem.aborted))
                      classes));
            counts =
              [
                ("gatelevel.podem_faults", sum (fun cl -> List.length cl.Podem.tested + List.length cl.Podem.untestable + List.length cl.Podem.aborted));
                ("gatelevel.podem_decided", sum (fun cl -> List.length cl.Podem.tested + List.length cl.Podem.untestable));
              ]
              @ bist_counts r;
          }
    | `Pareto ->
      let pts = span ~item:id "bist.pareto" (fun () -> Pareto.explore ~width dp) in
      fun () ->
        let front = List.map (fun (p : Pareto.point) -> (p.Pareto.delta_gates, p.Pareto.sessions)) pts in
        let best = r.Flow.bist.Allocator.delta_gates in
        let cheapest = match front with (a, _) :: _ -> a | [] -> max_int in
        if not (Oracle.pareto_front front) then fail "Pareto front is unsorted or dominated"
        else if cheapest > best || (r.Flow.bist.Allocator.exact && cheapest <> best) then
          fail "Pareto front misses the minimum-area solution"
        else
          {
            ok = true;
            why = "";
            digest = md5 (Format.asprintf "%a" Pareto.pp pts);
            counts = ("bist.pareto_points", float_of_int (List.length pts)) :: bist_counts r;
          }
  in
  let name = match cmd with `Coverage -> "coverage" | `Atpg -> "atpg" | `Pareto -> "pareto" in
  { id; label = inst.B.tag ^ "/" ^ name; ops = ops_of inst; exec }

(* ---------------------------------------------------------------- *)
(* Statistics *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Least-squares slope of log y against log x. *)
let fitted_exponent pts =
  let pts = List.filter (fun (x, y) -> x > 0.0 && y > 0.0) pts in
  let n = float_of_int (List.length pts) in
  if List.length (List.sort_uniq compare (List.map fst pts)) < 2 then 0.0
  else
    let lx = List.map (fun (x, _) -> log x) pts and ly = List.map (fun (_, y) -> log y) pts in
    let mean l = List.fold_left ( +. ) 0.0 l /. n in
    let mx = mean lx and my = mean ly in
    let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 lx ly in
    let sxx = List.fold_left (fun a x -> a +. ((x -. mx) ** 2.0)) 0.0 lx in
    if sxx = 0.0 then 0.0 else sxy /. sxx

(* Writing 5 to clear_refs resets the peak resident set (Linux). *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.0
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ -> 0.0

(* ---------------------------------------------------------------- *)
(* The run *)

type workload = {
  wname : string;
  setup : unit -> B.instance list * item list * item list array;
      (** the quality panel, the items of every pass, and the seeded
          random items of pass [k mod max_passes] *)
  coverage_panel : bool;  (** grade the panel's fault coverage after timing *)
  ladder_fit : bool;  (** fit core.regalloc_exp over the fir ladder *)
  warmup : string list;
      (** labels of the small fixed items every set-up ends with: they
          start the domain pool and grow the heap before anything is
          timed, and make the set-up long enough to time steadily *)
}

let setup_reps = 5

let program_span_names =
  [ ("regalloc", "core.regalloc"); ("interconnect", "datapath.interconnect");
    ("bist_alloc", "bist.alloc"); ("sessions", "bist.sessions") ]

let program_counters =
  [ ("regalloc.sd_evals", "core.regalloc.sd_evals"); ("bist.embeddings_explored", "bist.alloc_nodes");
    ("absint.iterations", "absint.iterations") ]

let seconds_since t0 = Int64.to_float (Int64.sub (Span.now ()) t0) /. 1e9

let run_workload (w : workload) ~seed ~seconds ~passes:fixed_passes ~trace ~jobs ~trace_out =
  Pool.set_jobs jobs;
  let setup_times = ref [] and built = ref None in
  for _ = 1 to setup_reps do
    let t0 = Span.now () in
    (* traced set-up records its dfg.parse spans under item -1; the
       warm-up items are not traced *)
    Span.enable trace;
    let ((_, fixed, _) as b) = w.setup () in
    Span.enable false;
    List.iter
      (fun label ->
        let (_ : unit -> verdict) = (List.find (fun it -> it.label = label) fixed).exec () in
        ())
      w.warmup;
    setup_times := seconds_since t0 :: !setup_times;
    built := Some b
  done;
  let panel, fixed, randoms = Option.get !built in
  let pass_items k =
    Array.of_list (fixed @ if randoms = [||] then [] else randoms.(k mod Array.length randoms))
  in
  let rng = Prng.create (seed lxor 0x5eed) in
  let samples = Hashtbl.create 64 and attempted = ref 0 and failed = ref 0 in
  let misses = ref [] in
  let counts = Hashtbl.create 32 in
  let bump k v = Hashtbl.replace counts k (v +. Option.value (Hashtbl.find_opt counts k) ~default:0.0) in
  let traced_items = ref 0 and untraced_ms = ref 0.0 and traced_ms = ref 0.0 in
  let regalloc_pts = ref [] in
  let digests = Hashtbl.create 64 in
  let first_pass = ref true in
  let time_call f =
    let t0 = Span.now () in
    let r = f () in
    (r, Int64.to_float (Int64.sub (Span.now ()) t0) /. 1e6)
  in
  let run_one (it : item) =
    incr attempted;
    match time_call it.exec with
    | exception e ->
      incr failed;
      misses := Printf.sprintf "%s: %s" it.label (Printexc.to_string e) :: !misses
    | oracle, ms ->
      Hashtbl.replace samples it.id (ms :: Option.value (Hashtbl.find_opt samples it.id) ~default:[]);
      let v = try oracle () with e -> fail (Printexc.to_string e) in
      if not v.ok then begin
        incr failed;
        misses := Printf.sprintf "%s: %s" it.label v.why :: !misses
      end;
      if !first_pass then Hashtbl.replace digests it.id v.digest;
      List.iter (fun (k, v) -> bump k v) v.counts;
      if trace then begin
        (* the same item again, traced *)
        Span.enable true;
        let (_, rec_), tms =
          time_call (fun () ->
              Telemetry.collect (fun () -> Span.with_span ~item:it.id ("item." ^ w.wname) it.exec))
        in
        List.iter
          (fun (s : Telemetry.span) ->
            match List.assoc_opt s.Telemetry.name program_span_names with
            | Some name -> Span.import ~item:it.id name ~start_ns:s.Telemetry.start_ns ~dur_ns:s.Telemetry.dur_ns
            | None -> ())
          (Telemetry.spans rec_);
        Span.enable false;
        incr traced_items;
        untraced_ms := !untraced_ms +. ms;
        traced_ms := !traced_ms +. tms;
        List.iter
          (fun (src, dst) -> bump dst (float_of_int (Telemetry.counter rec_ src)))
          program_counters;
        if w.ladder_fit && String.length it.label >= 3 && String.sub it.label 0 3 = "fir" then
          regalloc_pts :=
            (float_of_int it.ops, Telemetry.total_ns rec_ "regalloc" |> Int64.to_float)
            :: !regalloc_pts
      end
  in
  let t_start = Span.now () in
  let last_pass = ref 0.0 and passes = ref 0 and pass_rss = ref [] and pass_s = ref 0.0 in
  let more () =
    match fixed_passes with
    | Some n -> !passes < n
    | None -> !passes = 0 || seconds_since t_start +. !last_pass <= seconds
  in
  while more () do
    let p0 = Span.now () in
    reset_peak_rss ();
    let order = pass_items !passes in
    Prng.shuffle rng order;
    Array.iter run_one order;
    pass_rss := peak_rss_mb () :: !pass_rss;
    first_pass := false;
    incr passes;
    last_pass := seconds_since p0;
    pass_s := !pass_s +. !last_pass
  done;
  let measured_s = seconds_since t_start in
  let c k = Option.value (Hashtbl.find_opt counts k) ~default:0.0 in
  let lat = Hashtbl.fold (fun _ ms acc -> ms @ acc) samples [] in
  let nlat = List.length lat in
  let e2e () =
    (* Quality of the fixed panel's testable flows, untimed. *)
    let qs =
      List.map
        (fun (inst : B.instance) ->
          Flow.run ~width ~style:testable inst.B.dfg inst.B.massign ~policy:inst.B.policy)
        panel
    in
    let n = float_of_int (List.length qs) in
    let sumq f = List.fold_left (fun a r -> a +. f (quality_of r)) 0.0 qs in
    let coverage =
      if w.coverage_panel then begin
        let reps =
          List.map (fun (r : Flow.result) -> Bist_sim.run ~width ~pattern_count:255 r.Flow.datapath r.Flow.bist) qs
        in
        let units = List.concat_map (fun rep -> rep.Bist_sim.units) reps in
        let sum f = float_of_int (List.fold_left (fun a u -> a + f u) 0 units) in
        100.0 *. sum (fun u -> u.Bist_sim.faults_detected) /. sum (fun u -> u.Bist_sim.faults_total)
      end
      else 100.0 *. c "gatelevel.faults_detected" /. c "gatelevel.faults_graded"
    in
    [
      ("setup_s", median !setup_times);
      ("items_per_s", float_of_int nlat /. !pass_s);
      (* the median pass peak: the first pass still grows the heap, and
         with several domains where the major GC falls relative to a
         pass's biggest allocation moves single pass peaks *)
      ("peak_rss_mb", median !pass_rss);
      ("ok_ratio", float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted));
      ("bist_area_pct", sumq (fun q -> q.area_pct) /. n);
      ("cbilbo_count", sumq (fun q -> float_of_int q.cbilbos));
      ("reg_count", sumq (fun q -> float_of_int q.regs));
      ("mux_count", sumq (fun q -> float_of_int q.muxes));
      ("fault_coverage_pct", coverage);
    ]
  in
  (* The span-derived per-layer metrics (times, busy/self, unattributed
     share) are computed by run.py from the --trace-out file. *)
  let layer () =
    let per_item v = v /. float_of_int (max 1 !attempted) in
    let ratio a b = if c b = 0.0 then 0.0 else c a /. c b in
    [
      ("core.regalloc.sd_evals", per_item (c "core.regalloc.sd_evals"));
      ("core.regalloc_exp", fitted_exponent !regalloc_pts);
      ("bist.alloc_nodes", per_item (c "bist.alloc_nodes"));
      ("bist.alloc_exact_ratio", ratio "bist.exact" "bist.solves");
      ("bist.pareto_points", per_item (c "bist.pareto_points"));
      ("rtl.emit_bytes", per_item (c "rtl.emit_bytes"));
      ("rtl.equiv_vectors", per_item (c "rtl.equiv_vectors"));
      ("rtl.mutants_caught_ratio", ratio "rtl.mutants_caught" "rtl.mutants");
      ("check.error_findings", per_item (c "check.error_findings"));
      ("absint.iterations", per_item (c "absint.iterations"));
      ("gatelevel.faults_graded", per_item (c "gatelevel.faults_graded"));
      ("gatelevel.podem_decided_ratio", ratio "gatelevel.podem_decided" "gatelevel.podem_faults");
      ("trace.overhead_pct", 100.0 *. ((!traced_ms /. !untraced_ms) -. 1.0));
    ]
  in
  let e2e = if trace then [] else e2e () in
  let layer = if trace then layer () else [] in
  Option.iter (fun path -> Telemetry.write_file path (Span.to_json ())) trace_out;
  let digest =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) digests [] |> List.sort compare
    |> List.map snd |> String.concat "" |> md5
  in
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let obj kvs = "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) kvs) ^ "}" in
  let metrics kvs = obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  let quote s = "\"" ^ Telemetry.json_escape s ^ "\"" in
  print_endline
    (obj
       [
         ("workload", quote w.wname);
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ("misses", "[" ^ String.concat "," (List.map quote (List.rev !misses)) ^ "]");
         ("e2e", metrics e2e);
         ("layer", metrics layer);
         (* run.py estimates the latency quantiles from these *)
         ("latencies_ms", "[" ^ String.concat "," (List.map num lat) ^ "]");
         ( "info",
           obj
             [
               ("items_per_pass", string_of_int (Array.length (pass_items 0)));
               ("distinct_items", string_of_int (Hashtbl.length samples));
               (* fixed items are timed once per pass, each pass's random
                  designs once *)
               ("samples_per_fixed_item", string_of_int !passes);
               ("pass_peak_rss_mb", "[" ^ String.concat "," (List.rev_map num !pass_rss) ^ "]");
               ("passes", string_of_int !passes);
               ("samples", string_of_int nlat);
               ("measured_s", num measured_s);
               ("setup_reps", string_of_int setup_reps);
               ("passes_s", num !pass_s);
               ("pool_width", string_of_int (Pool.configured_jobs ()));
               ("ocaml_version", quote Sys.ocaml_version);
               ("output_digest", quote digest);
               ("traced_items", string_of_int !traced_items);
             ] );
       ])

(* ---------------------------------------------------------------- *)
(* Workload table *)

(* Random designs are numbered from 1000 on, past every fixed item;
   [make n inst] gives the design's items. *)
let numbered_sets sets make =
  Array.mapi
    (fun k set ->
      List.concat (List.mapi (fun j inst -> make (1000 + (k * List.length set) + j) inst) set))
    sets

let workloads ~seed =
  let number xs = List.mapi (fun i x -> (i, x)) xs in
  [
    {
      wname = "alloc-ladder";
      setup =
        (fun () ->
          let ladder = List.map (fun taps -> B.fir ~taps) ladder_taps in
          ( ladder,
            List.concat_map (fun (i, inst) -> alloc_items i inst) (number ladder),
            numbered_sets (random_sets ~seed ~sizes:ladder_random_ops) alloc_items ));
      coverage_panel = true;
      ladder_fit = true;
      warmup = [ "fir16/testable"; "fir16/traditional"; "fir24/testable"; "fir24/traditional" ];
    };
    {
      wname = "signoff";
      setup =
        (fun () ->
          let panel, sets = signoff_setup ~seed in
          ( panel,
            List.map (fun (i, inst) -> signoff_item ~seed i inst) (number panel),
            numbered_sets sets (fun n inst -> [ signoff_item ~seed n inst ]) ));
      coverage_panel = true;
      ladder_fit = false;
      warmup = [ "ex1"; "ex2"; "Tseng1"; "Paulin"; "ewf" ];
    };
    {
      wname = "bist-grade";
      setup =
        (fun () ->
          let insts = List.filter_map B.by_tag grade_tags in
          let items =
            List.concat_map
              (fun (i, inst) ->
                [ grade_item ~seed (3 * i) inst `Coverage; grade_item ~seed ((3 * i) + 1) inst `Atpg;
                  grade_item ~seed ((3 * i) + 2) inst `Pareto ])
              (number insts)
          in
          (insts, items, [||]));
      coverage_panel = false;
      ladder_fit = false;
      warmup = [ "ewf/coverage"; "Paulin/atpg"; "fir16/pareto" ];
    };
  ]

(* ---------------------------------------------------------------- *)
(* gen: random designs for the job stream *)

let gen ~seed ~dir ~count ~ops_lo ~ops_hi ~prefix =
  let rng = Prng.create seed in
  for i = 0 to count - 1 do
    let ops = ops_lo + Prng.int rng (ops_hi - ops_lo + 1) in
    let inst = random_instance rng ~ops in
    let dfg = { inst.B.dfg with Dfg.name = Printf.sprintf "%s%d" prefix i } in
    Out_channel.with_open_bin
      (Filename.concat dir (Printf.sprintf "%s%d.dfg" prefix i))
      (fun oc -> output_string oc (Dparser.to_string dfg))
  done

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("bad argument " ^ x)
  in
  let get o k = match List.assoc_opt k o with Some v -> v | None -> failwith ("missing --" ^ k) in
  let geti o k = int_of_string (get o k) in
  match args with
  | "run" :: rest ->
    let o = opts [] rest in
    let seed = geti o "seed" in
    let name = get o "workload" in
    let w =
      match List.find_opt (fun w -> w.wname = name) (workloads ~seed) with
      | Some w -> w
      | None -> failwith ("unknown workload " ^ name)
    in
    run_workload w ~seed ~seconds:(float_of_string (get o "seconds"))
      ~passes:(Option.map int_of_string (List.assoc_opt "passes" o))
      ~trace:(geti o "trace" = 1) ~jobs:(geti o "jobs")
      ~trace_out:(List.assoc_opt "trace-out" o)
  | "gen" :: rest ->
    let o = opts [] rest in
    gen ~seed:(geti o "seed") ~dir:(get o "dir") ~count:(geti o "count") ~ops_lo:(geti o "ops-lo")
      ~ops_hi:(geti o "ops-hi") ~prefix:(get o "prefix")
  | _ ->
    prerr_endline "usage: bench.exe run|gen --option value ...";
    exit 2
