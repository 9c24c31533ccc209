module Prng = Qcr_util.Prng
module Pqueue = Qcr_util.Pqueue
module Bitset = Qcr_util.Bitset
module Union_find = Qcr_util.Union_find
module Stats = Qcr_util.Stats
module Tablefmt = Qcr_util.Tablefmt
module Lru = Qcr_util.Lru

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Prng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_split_independent () =
  let parent = Prng.create 1 in
  let child = Prng.split parent in
  let a = Prng.bits64 child and b = Prng.bits64 parent in
  Alcotest.(check bool) "distinct streams" true (a <> b)

(* Statistical smoke test for [split_n]: the per-trajectory child streams
   must look mutually independent — distinct openings, uniform marginals,
   and no pairwise correlation between sibling streams. *)
let test_prng_split_n_statistics () =
  let n_children = 64 and draws = 512 in
  let rngs = Prng.split_n (Prng.create 42) n_children in
  Alcotest.(check int) "child count" n_children (Array.length rngs);
  let first = Array.map Prng.bits64 rngs in
  let module S = Set.Make (Int64) in
  Alcotest.(check int) "distinct first draws"
    n_children
    (S.cardinal (Array.fold_left (fun s x -> S.add x s) S.empty first));
  let samples =
    Array.map (fun rng -> Array.init draws (fun _ -> Prng.float rng 1.0)) rngs
  in
  Array.iteri
    (fun i xs ->
      let mean = Stats.mean xs in
      Alcotest.(check bool)
        (Printf.sprintf "child %d mean near 0.5" i)
        true
        (abs_float (mean -. 0.5) < 0.1))
    samples;
  (* Pearson correlation between adjacent siblings: for 512 iid uniform
     pairs the sample correlation is ~N(0, 1/sqrt 512); |r| < 0.2 is a
     > 6-sigma envelope, so this only trips on real stream coupling. *)
  for i = 0 to n_children - 2 do
    let xs = samples.(i) and ys = samples.(i + 1) in
    let mx = Stats.mean xs and my = Stats.mean ys in
    let num = ref 0.0 and dx2 = ref 0.0 and dy2 = ref 0.0 in
    for k = 0 to draws - 1 do
      let dx = xs.(k) -. mx and dy = ys.(k) -. my in
      num := !num +. (dx *. dy);
      dx2 := !dx2 +. (dx *. dx);
      dy2 := !dy2 +. (dy *. dy)
    done;
    let r = !num /. sqrt (!dx2 *. !dy2) in
    Alcotest.(check bool)
      (Printf.sprintf "siblings %d,%d uncorrelated" i (i + 1))
      true
      (abs_float r < 0.2)
  done

let test_prng_split_n_edge_cases () =
  Alcotest.(check int) "zero children" 0 (Array.length (Prng.split_n (Prng.create 1) 0));
  Alcotest.check_raises "negative children"
    (Invalid_argument "Prng.split_n: negative count") (fun () ->
      ignore (Prng.split_n (Prng.create 1) (-1)));
  (* splitting is deterministic: same seed, same child streams *)
  let a = Prng.split_n (Prng.create 9) 5 and b = Prng.split_n (Prng.create 9) 5 in
  Array.iter2
    (fun x y -> Alcotest.(check int64) "deterministic child" (Prng.bits64 x) (Prng.bits64 y))
    a b

let test_prng_shuffle_permutes () =
  let rng = Prng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_gaussian_moments () =
  let rng = Prng.create 5 in
  let samples = Array.init 20000 (fun _ -> Prng.gaussian rng ~mu:2.0 ~sigma:0.5) in
  let mean = Stats.mean samples in
  let sd = Stats.stddev samples in
  Alcotest.(check bool) "mean near 2" true (abs_float (mean -. 2.0) < 0.02);
  Alcotest.(check bool) "sd near 0.5" true (abs_float (sd -. 0.5) < 0.02)

let test_pqueue_basic () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Pqueue.push q ~prio:3 "c";
  Pqueue.push q ~prio:1 "a";
  Pqueue.push q ~prio:2 "b";
  Alcotest.(check (option (pair int string))) "peek" (Some (1, "a")) (Pqueue.peek q);
  Alcotest.(check (pair int string)) "pop1" (1, "a") (Pqueue.pop_exn q);
  Alcotest.(check (pair int string)) "pop2" (2, "b") (Pqueue.pop_exn q);
  Alcotest.(check (pair int string)) "pop3" (3, "c") (Pqueue.pop_exn q);
  Alcotest.(check (option (pair int string))) "drained" None (Pqueue.pop q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q ~prio:1 "first";
  Pqueue.push q ~prio:1 "second";
  Pqueue.push q ~prio:1 "third";
  Alcotest.(check string) "tie order" "first" (snd (Pqueue.pop_exn q));
  Alcotest.(check string) "tie order" "second" (snd (Pqueue.pop_exn q));
  Alcotest.(check string) "tie order" "third" (snd (Pqueue.pop_exn q))

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun prios ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q ~prio:p p) prios;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare prios)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 99;
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal b);
  Alcotest.(check bool) "mem 63" true (Bitset.mem b 63);
  Alcotest.(check bool) "not mem 64" false (Bitset.mem b 64);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "to_list" [ 0; 99 ] (Bitset.to_list b)

let test_bitset_copy_independent () =
  let a = Bitset.create 10 in
  Bitset.add a 5;
  let b = Bitset.copy a in
  Bitset.remove b 5;
  Alcotest.(check bool) "copy independent" true (Bitset.mem a 5 && not (Bitset.mem b 5))

let prop_bitset_add_mem =
  QCheck.Test.make ~name:"bitset add/mem agree with a set" ~count:200
    QCheck.(list (int_bound 199))
    (fun xs ->
      let b = Bitset.create 200 in
      List.iter (Bitset.add b) xs;
      let reference = List.sort_uniq compare xs in
      Bitset.to_list b = reference && Bitset.cardinal b = List.length reference)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial components" 6 (Union_find.count uf);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  Union_find.union uf 1 2;
  Alcotest.(check bool) "same 0 3" true (Union_find.same uf 0 3);
  Alcotest.(check bool) "not same 0 4" false (Union_find.same uf 0 4);
  Alcotest.(check int) "components" 3 (Union_find.count uf)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [| 1.0; 4.0 |]);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum [| 3.0; 1.0 |]);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Stats.maximum [| 3.0; 1.0 |]);
  let norm = Stats.normalize ~baseline:[| 2.0; 4.0 |] [| 1.0; 2.0 |] in
  Alcotest.(check (array (float 1e-9))) "normalize" [| 0.5; 0.5 |] norm

let test_tablefmt () =
  let t = Tablefmt.create [ "name"; "value" ] in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_row t [ "b" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "has header" true (String.length s > 0);
  Alcotest.(check bool) "contains row" true
    (String.length s >= 5 && String.index_opt s 'a' <> None);
  Alcotest.(check string) "int cell" "42" (Tablefmt.cell_int 42);
  Alcotest.(check string) "ratio cell" "0.50" (Tablefmt.cell_ratio 0.5)

(* ---------- Lru ---------- *)

let test_lru_capacity_zero () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  Alcotest.(check int) "stores nothing" 0 (Lru.length c);
  Alcotest.(check (option int)) "find misses" None (Lru.find c "a");
  Alcotest.(check (option (pair string int))) "pop_lru on empty" None (Lru.pop_lru c);
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Lru.create: capacity must be non-negative") (fun () ->
      ignore (Lru.create ~capacity:(-1)))

let test_lru_capacity_one () =
  let c = Lru.create ~capacity:1 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check int) "holds one entry" 1 (Lru.length c);
  Alcotest.(check (option int)) "a evicted" None (Lru.find c "a");
  Alcotest.(check (option int)) "b present" (Some 2) (Lru.find c "b")

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* promote [a]: [b] is now least recently used *)
  ignore (Lru.find c "a");
  Lru.add c "d" 4;
  Alcotest.(check (option int)) "b evicted, not a" None (Lru.peek c "b");
  Alcotest.(check (option int)) "a survives its promotion" (Some 1) (Lru.peek c "a");
  Alcotest.(check (option (pair string int))) "c is now LRU" (Some ("c", 3)) (Lru.pop_lru c);
  Alcotest.(check int) "pop removed it" 2 (Lru.length c)

let test_lru_overwrite_refreshes () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* overwriting [a] must refresh its recency and replace its value *)
  Lru.add c "a" 10;
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted as LRU" None (Lru.peek c "b");
  Alcotest.(check (option int)) "a kept with new value" (Some 10) (Lru.peek c "a")

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng split_n statistics" `Quick test_prng_split_n_statistics;
    Alcotest.test_case "prng split_n edge cases" `Quick test_prng_split_n_edge_cases;
    Alcotest.test_case "prng shuffle permutes" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "prng gaussian moments" `Quick test_prng_gaussian_moments;
    Alcotest.test_case "pqueue basic" `Quick test_pqueue_basic;
    Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_ties;
    QCheck_alcotest.to_alcotest prop_pqueue_sorted;
    Alcotest.test_case "bitset basic" `Quick test_bitset_basic;
    Alcotest.test_case "bitset copy" `Quick test_bitset_copy_independent;
    QCheck_alcotest.to_alcotest prop_bitset_add_mem;
    Alcotest.test_case "union find" `Quick test_union_find;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "tablefmt" `Quick test_tablefmt;
    Alcotest.test_case "lru capacity zero" `Quick test_lru_capacity_zero;
    Alcotest.test_case "lru capacity one" `Quick test_lru_capacity_one;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru overwrite refreshes recency" `Quick test_lru_overwrite_refreshes;
  ]
