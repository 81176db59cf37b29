module B = Vm.Bytecode
module Int_set = Set.Make (Int)

type t = Int_set.t array  (** per pc: live after *)

let use_def = function
  | B.Iload i | B.Aload i -> (Some i, None)
  | B.Istore i | B.Astore i -> (None, Some i)
  | _ -> (None, None)

(* live-before = (live-after - def) + use *)
let transfer instr after =
  match use_def instr with
  | Some used, None -> Int_set.add used after
  | None, Some defined -> Int_set.remove defined after
  | None, None -> after
  | Some _, Some _ -> assert false

let analyze code =
  let cfg = Cfg.build code in
  let outs = Array.make (Array.length code) Int_set.empty in
  let n_blocks = Cfg.n_blocks cfg in
  (* block-level fixpoint on live-in of block heads *)
  let block_in = Array.make n_blocks Int_set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = n_blocks - 1 downto 0 do
      let block = Cfg.block cfg b in
      let live_after_block =
        List.fold_left
          (fun acc s -> Int_set.union acc block_in.(s))
          Int_set.empty block.succs
      in
      let live = ref live_after_block in
      for pc = block.end_pc - 1 downto block.start_pc do
        outs.(pc) <- !live;
        live := transfer code.(pc) !live
      done;
      if not (Int_set.equal !live block_in.(b)) then begin
        block_in.(b) <- !live;
        changed := true
      end
    done
  done;
  outs

let live_out t pc = t.(pc)

let eliminate_dead_stores code =
  let analysis = analyze code in
  Array.mapi
    (fun pc instr ->
      match instr with
      | B.Istore i | B.Astore i
        when not (Int_set.mem i (live_out analysis pc)) ->
          B.Pop
      | instr -> instr)
    code
