(* Output oracles that do not go through the code they judge.

   - [dfg_vs_datapath]: the behavioural DFG evaluation against the
     cycle-accurate data-path interpreter on seeded vectors, compared
     here rather than through [Interp.equivalent_to_dfg].
   - [detects]: a single-pattern gate evaluator written for the
     benchmark, used to confirm that a PODEM vector really exposes its
     fault (PODEM's own [verify] is not consulted).
   - [drop_assign]: the seeded mutant generator for the RTL sign-off
     path; the verdict on a mutant is known to be "not equivalent".
   - [pareto_front]: dominance and ordering of an area/session front. *)

module Dfg = Bistpath_dfg.Dfg
module Eval = Bistpath_dfg.Eval
module Interp = Bistpath_datapath.Interp
module Circuit = Bistpath_gatelevel.Circuit
module Fault = Bistpath_gatelevel.Fault
module Prng = Bistpath_util.Prng

let vector rng ~width (dfg : Dfg.t) =
  List.map (fun x -> (x, Prng.int rng (1 lsl width))) dfg.Dfg.inputs

(* Every primary output of the interpreted data path equals the
   behavioural value, on [n] seeded vectors. *)
let dfg_vs_datapath ~seed ~n ~width dfg dp =
  let rng = Prng.create seed in
  let rec go k =
    k = 0
    ||
    let inputs = vector rng ~width dfg in
    let expected = Eval.run dfg ~width ~inputs in
    let actual, _ = Interp.run dp ~width ~inputs in
    List.sort compare expected = List.sort compare actual && go (k - 1)
  in
  go n

(* One bit per net; the faulty net is forced after it is computed, so
   the stuck value propagates to every reader. *)
let eval_bits (c : Circuit.t) ?fault bits =
  let v = Array.make c.Circuit.num_nets false in
  let force net =
    match fault with
    | Some (f : Fault.t) when f.Fault.net = net ->
      v.(net) <- (match f.Fault.polarity with Fault.Stuck_at_1 -> true | Fault.Stuck_at_0 -> false)
    | _ -> ()
  in
  List.iteri
    (fun i net ->
      v.(net) <- List.nth bits i = 1;
      force net)
    c.Circuit.inputs;
  Array.iter
    (fun (g : Circuit.gate) ->
      let ins = List.map (fun n -> v.(n)) g.Circuit.inputs in
      let all = List.for_all Fun.id ins and any = List.exists Fun.id ins in
      let parity = List.fold_left (fun a b -> a <> b) false ins in
      v.(g.Circuit.output) <-
        (match g.Circuit.kind with
        | Circuit.And -> all
        | Circuit.Or -> any
        | Circuit.Nand -> not all
        | Circuit.Nor -> not any
        | Circuit.Xor -> parity
        | Circuit.Xnor -> not parity
        | Circuit.Not -> not (List.hd ins)
        | Circuit.Buf -> List.hd ins);
      force g.Circuit.output)
    c.Circuit.gates;
  List.map (fun n -> v.(n)) c.Circuit.outputs

let detects c fault bits = eval_bits c bits <> eval_bits c ~fault bits

(* Remove one seeded [assign d_<reg> = ...;] statement from emitted
   RTL: the register's next-state wire is left undriven, so a sound
   equivalence check must reject the result. [None] when the text has
   no such statement. *)
let drop_assign ~seed rtl =
  let needle = "assign d_" in
  let n = String.length needle in
  let rec starts i acc =
    match String.index_from_opt rtl i 'a' with
    | None -> List.rev acc
    | Some j ->
      let acc =
        if j + n <= String.length rtl && String.sub rtl j n = needle then j :: acc else acc
      in
      starts (j + 1) acc
  in
  match starts 0 [] with
  | [] -> None
  | sites ->
    let at = List.nth sites (Prng.int (Prng.create seed) (List.length sites)) in
    let stop = String.index_from rtl at ';' + 1 in
    Some (String.sub rtl 0 at ^ String.sub rtl stop (String.length rtl - stop))

(* Points sorted by area, each strictly cheaper in sessions than the
   previous one (so none dominates another). *)
let pareto_front (pts : (int * int) list) =
  let rec ok = function
    | (a1, s1) :: ((a2, s2) :: _ as rest) -> a1 < a2 && s1 > s2 && ok rest
    | _ -> true
  in
  pts <> [] && ok pts
