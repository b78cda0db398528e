(* Model-based tests for Serve.Lru.

   The model is an association list ordered most-recent-first; a
   random program of find/peek/put operations is replayed against both
   the model and the real cache, and every intermediate observation
   (lookup results, length, hit/miss counters) must agree.  The model
   encodes the contract directly: [find] refreshes recency and counts,
   [peek] is a pure read (no recency, no counters), [put] of a present
   key only restamps it, and capacity 0 disables the cache. *)

let kv_eq = Alcotest.(check (option int))

(* ---------- reference model ---------- *)

type model = {
  m_capacity : int;
  mutable m_entries : (string * int) list;  (* most recent first *)
  mutable m_hits : int;
  mutable m_misses : int;
}

let model_create capacity =
  { m_capacity = capacity; m_entries = []; m_hits = 0; m_misses = 0 }

let promote m key =
  match List.assoc_opt key m.m_entries with
  | None -> ()
  | Some v ->
    m.m_entries <- (key, v) :: List.remove_assoc key m.m_entries

let model_find m key =
  match List.assoc_opt key m.m_entries with
  | Some v ->
    m.m_hits <- m.m_hits + 1;
    promote m key;
    Some v
  | None ->
    m.m_misses <- m.m_misses + 1;
    None

let model_peek m key = List.assoc_opt key m.m_entries

let model_put m key v =
  if m.m_capacity = 0 then ()
  else if List.mem_assoc key m.m_entries then promote m key
    (* stored value kept: entries are pure functions of their key *)
  else begin
    let entries =
      if List.length m.m_entries >= m.m_capacity then
        (* drop the least recently stamped = last in the list *)
        List.filteri (fun i _ -> i < List.length m.m_entries - 1) m.m_entries
      else m.m_entries
    in
    m.m_entries <- (key, v) :: entries
  end

(* ---------- random programs ---------- *)

type op = Find of string | Peek of string | Put of string * int

let pp_op = function
  | Find k -> Printf.sprintf "find %S" k
  | Peek k -> Printf.sprintf "peek %S" k
  | Put (k, v) -> Printf.sprintf "put %S %d" k v

(* A small key universe so programs revisit keys often enough to
   exercise promotion and eviction, not just insertion. *)
let key_gen = QCheck.Gen.map (Printf.sprintf "k%d") (QCheck.Gen.int_bound 7)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Find k) key_gen);
        (2, map (fun k -> Peek k) key_gen);
        (4, map2 (fun k v -> Put (k, v)) key_gen (int_bound 1000));
      ])

let program_gen = QCheck.Gen.(pair (int_bound 5) (list_size (int_range 0 60) op_gen))

let program_arb =
  QCheck.make program_gen
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: [%s]" cap
        (String.concat "; " (List.map pp_op ops)))

let run_program (capacity, ops) =
  let lru = Serve.Lru.create ~capacity in
  let m = model_create capacity in
  List.iter
    (fun op ->
      (match op with
      | Find k ->
        let got = Serve.Lru.find lru k and want = model_find m k in
        kv_eq (pp_op op) want got
      | Peek k ->
        let got = Serve.Lru.peek lru k and want = model_peek m k in
        kv_eq (pp_op op) want got
      | Put (k, v) ->
        Serve.Lru.put lru k v;
        model_put m k v);
      Alcotest.(check int) "length" (List.length m.m_entries)
        (Serve.Lru.length lru);
      Alcotest.(check int) "hits" m.m_hits (Serve.Lru.hits lru);
      Alcotest.(check int) "misses" m.m_misses (Serve.Lru.misses lru))
    ops;
  true

let model_agreement =
  QCheck.Test.make ~count:500 ~name:"random programs agree with the model"
    program_arb run_program

(* ---------- targeted unit checks ---------- *)

let test_find_refreshes_peek_does_not () =
  (* Capacity 2; which of the two old keys survives a third insertion
     depends only on whether the intervening lookup refreshed it. *)
  let with_lookup look =
    let lru = Serve.Lru.create ~capacity:2 in
    Serve.Lru.put lru "a" 1;
    Serve.Lru.put lru "b" 2;
    ignore (look lru "a" : int option);
    Serve.Lru.put lru "c" 3;
    (Serve.Lru.peek lru "a", Serve.Lru.peek lru "b")
  in
  (match with_lookup Serve.Lru.find with
  | Some 1, None -> ()
  | _ -> Alcotest.fail "find must refresh: expected a kept, b evicted");
  match with_lookup Serve.Lru.peek with
  | None, Some 2 -> ()
  | _ -> Alcotest.fail "peek must not refresh: expected a evicted, b kept"

let test_capacity_zero_disables () =
  let lru = Serve.Lru.create ~capacity:0 in
  Serve.Lru.put lru "a" 1;
  kv_eq "put is a no-op" None (Serve.Lru.find lru "a");
  Alcotest.(check int) "stays empty" 0 (Serve.Lru.length lru);
  Alcotest.(check int) "capacity 0" 0 (Serve.Lru.capacity lru);
  Alcotest.check_raises "negative capacity still refused"
    (Invalid_argument "Serve.Lru.create: capacity must be >= 0") (fun () ->
      ignore (Serve.Lru.create ~capacity:(-1) : int Serve.Lru.t))

let test_counters_only_from_find () =
  let lru = Serve.Lru.create ~capacity:4 in
  Serve.Lru.put lru "a" 1;
  ignore (Serve.Lru.peek lru "a" : int option);
  ignore (Serve.Lru.peek lru "zzz" : int option);
  Alcotest.(check int) "peek books no hits" 0 (Serve.Lru.hits lru);
  Alcotest.(check int) "peek books no misses" 0 (Serve.Lru.misses lru);
  ignore (Serve.Lru.find lru "a" : int option);
  ignore (Serve.Lru.find lru "zzz" : int option);
  Alcotest.(check int) "find books hits" 1 (Serve.Lru.hits lru);
  Alcotest.(check int) "find books misses" 1 (Serve.Lru.misses lru)

let suite =
  [
    Qseed.to_alcotest model_agreement;
    Alcotest.test_case "find refreshes recency, peek does not" `Quick
      test_find_refreshes_peek_does_not;
    Alcotest.test_case "capacity 0 disables the cache" `Quick
      test_capacity_zero_disables;
    Alcotest.test_case "only find touches the hit/miss counters" `Quick
      test_counters_only_from_find;
  ]
