(* Tests for routing trees: spec validation, shape invariants,
   traversal order and the seeded generators (including the exact
   Table 1 counts). *)

let sink name = { Rctree.Tree.sink_cap = 5.0; sink_rat = 0.0; sink_name = name }

let tiny_tree () =
  (* root -- a -- merge(b, c) with explicit geometry. *)
  Rctree.Tree.of_spec
    (Rctree.Tree.Node
       {
         x = 0.0;
         y = 0.0;
         children =
           [
             ( Rctree.Tree.Node
                 {
                   x = 100.0;
                   y = 0.0;
                   children =
                     [
                       (Rctree.Tree.Leaf { x = 100.0; y = 50.0; sink = sink "b" }, None);
                       (Rctree.Tree.Leaf { x = 150.0; y = 0.0; sink = sink "c" }, None);
                     ];
                 },
               None );
           ];
       })

let test_shape () =
  let t = tiny_tree () in
  Alcotest.(check int) "nodes" 4 (Rctree.Tree.node_count t);
  Alcotest.(check int) "sinks" 2 (Rctree.Tree.sink_count t);
  Alcotest.(check int) "edges" 3 (Rctree.Tree.edge_count t);
  Alcotest.(check int) "root" 0 (Rctree.Tree.root t);
  Alcotest.(check bool) "root not sink" false (Rctree.Tree.is_sink t 0)

let test_manhattan_lengths () =
  let t = tiny_tree () in
  let lengths =
    List.map snd (Rctree.Tree.children t 0)
    @ List.concat_map
        (fun (c, _) -> List.map snd (Rctree.Tree.children t c))
        (Rctree.Tree.children t 0)
  in
  Alcotest.(check (list (float 1e-9))) "manhattan" [ 100.0; 50.0; 50.0 ] lengths;
  Alcotest.(check (float 1e-9)) "total wirelength" 200.0 (Rctree.Tree.total_wirelength t)

let test_parent_and_wire_to () =
  let t = tiny_tree () in
  Alcotest.(check (option int)) "root has no parent" None (Rctree.Tree.parent t 0);
  List.iter
    (fun (c, l) ->
      Alcotest.(check (option int)) "parent" (Some 0) (Rctree.Tree.parent t c);
      Alcotest.(check (float 1e-9)) "wire_to" l (Rctree.Tree.wire_to t c))
    (Rctree.Tree.children t 0);
  Alcotest.check_raises "wire_to root"
    (Invalid_argument "Tree.wire_to: the root has no wire") (fun () ->
      ignore (Rctree.Tree.wire_to t 0))

let test_postorder_children_first () =
  let t = Rctree.Generate.random_steiner ~seed:2 ~sinks:50 ~die_um:5000.0 () in
  let order = Rctree.Tree.postorder t in
  let position = Array.make (Rctree.Tree.node_count t) (-1) in
  Array.iteri (fun i id -> position.(id) <- i) order;
  Rctree.Tree.iter_edges t (fun ~parent ~child ~length:_ ->
      Alcotest.(check bool) "child before parent" true
        (position.(child) < position.(parent)))

let test_fold_postorder_counts_sinks () =
  let t = Rctree.Generate.random_steiner ~seed:3 ~sinks:37 ~die_um:5000.0 () in
  let total =
    Rctree.Tree.fold_postorder t ~f:(fun id kids ->
        if Rctree.Tree.is_sink t id then 1 else List.fold_left ( + ) 0 kids)
  in
  Alcotest.(check int) "fold sums sinks" 37 total

let test_spec_validation () =
  Alcotest.check_raises "root arity"
    (Invalid_argument "Tree.of_spec: the root must have exactly one child")
    (fun () ->
      ignore
        (Rctree.Tree.of_spec
           (Rctree.Tree.Node
              {
                x = 0.0;
                y = 0.0;
                children =
                  [
                    (Rctree.Tree.Leaf { x = 1.0; y = 0.0; sink = sink "a" }, None);
                    (Rctree.Tree.Leaf { x = 2.0; y = 0.0; sink = sink "b" }, None);
                  ];
              })));
  Alcotest.check_raises "negative wire"
    (Invalid_argument "Tree.of_spec: negative wire length") (fun () ->
      ignore
        (Rctree.Tree.of_spec
           (Rctree.Tree.Node
              {
                x = 0.0;
                y = 0.0;
                children =
                  [ (Rctree.Tree.Leaf { x = 1.0; y = 0.0; sink = sink "a" }, Some (-1.0)) ];
              })))

(* ---------- generators ---------- *)

let test_random_steiner_shape () =
  List.iter
    (fun n ->
      let t = Rctree.Generate.random_steiner ~seed:1 ~sinks:n ~die_um:4000.0 () in
      Alcotest.(check int) "sinks" n (Rctree.Tree.sink_count t);
      Alcotest.(check int) "edges = 2n-1" ((2 * n) - 1) (Rctree.Tree.edge_count t);
      Alcotest.(check bool) "wirelength positive" true
        (Rctree.Tree.total_wirelength t > 0.0))
    [ 1; 2; 3; 10; 100 ]

let test_random_steiner_deterministic () =
  let t1 = Rctree.Generate.random_steiner ~seed:5 ~sinks:64 ~die_um:4000.0 () in
  let t2 = Rctree.Generate.random_steiner ~seed:5 ~sinks:64 ~die_um:4000.0 () in
  Alcotest.(check (float 1e-12)) "same wirelength"
    (Rctree.Tree.total_wirelength t1)
    (Rctree.Tree.total_wirelength t2);
  let t3 = Rctree.Generate.random_steiner ~seed:6 ~sinks:64 ~die_um:4000.0 () in
  Alcotest.(check bool) "different seed differs" true
    (Rctree.Tree.total_wirelength t1 <> Rctree.Tree.total_wirelength t3)

let test_random_steiner_sinks_on_die () =
  let die = 3000.0 in
  let t = Rctree.Generate.random_steiner ~seed:9 ~sinks:80 ~die_um:die () in
  for id = 0 to Rctree.Tree.node_count t - 1 do
    let x, y = Rctree.Tree.position t id in
    Alcotest.(check bool) "on die" true (x >= 0.0 && x <= die && y >= 0.0 && y <= die)
  done

let test_random_steiner_validation () =
  Alcotest.check_raises "no sinks"
    (Invalid_argument "Generate.random_steiner: sinks must be >= 1") (fun () ->
      ignore (Rctree.Generate.random_steiner ~seed:1 ~sinks:0 ~die_um:100.0 ()))

let test_h_tree_shape () =
  List.iter
    (fun levels ->
      let t = Rctree.Generate.h_tree ~levels ~die_um:10000.0 () in
      let expected = int_of_float (4.0 ** float_of_int levels) in
      Alcotest.(check int) "4^levels sinks" expected (Rctree.Tree.sink_count t);
      Alcotest.(check int) "edges" ((2 * expected) - 1) (Rctree.Tree.edge_count t))
    [ 1; 2; 3; 4 ]

let test_h_tree_symmetric () =
  (* All sink path lengths from the root are equal in an H-tree. *)
  let t = Rctree.Generate.h_tree ~levels:3 ~die_um:8000.0 () in
  let depths = Hashtbl.create 16 in
  let rec walk id len =
    match Rctree.Tree.children t id with
    | [] -> Hashtbl.replace depths (Float.round (len *. 1000.0)) ()
    | kids -> List.iter (fun (c, l) -> walk c (len +. l)) kids
  in
  walk (Rctree.Tree.root t) 0.0;
  Alcotest.(check int) "single path length" 1 (Hashtbl.length depths)

let test_h_tree_validation () =
  Alcotest.check_raises "levels range"
    (Invalid_argument "Generate.h_tree: levels must lie in [1, 10]") (fun () ->
      ignore (Rctree.Generate.h_tree ~levels:0 ~die_um:100.0 ()))

(* ---------- benchmark suite (Table 1) ---------- *)

let test_benchmarks_match_table1 () =
  let expected =
    [ ("p1", 269, 537); ("p2", 603, 1205); ("r1", 267, 533); ("r2", 598, 1195);
      ("r3", 862, 1723); ("r4", 1903, 3805); ("r5", 3101, 6201) ]
  in
  List.iter
    (fun (name, sinks, positions) ->
      let t = Rctree.Benchmarks.load_by_name name in
      Alcotest.(check int) (name ^ " sinks") sinks (Rctree.Tree.sink_count t);
      Alcotest.(check int) (name ^ " buffer positions") positions
        (Rctree.Tree.edge_count t))
    expected

let test_benchmarks_find () =
  Alcotest.(check int) "names count" 7 (List.length Rctree.Benchmarks.names);
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Rctree.Benchmarks.find "zz9"))

let prop_generated_trees_well_formed =
  QCheck.Test.make ~name:"generated trees are well-formed" ~count:30
    QCheck.(pair (int_range 1 200) (int_range 0 1000))
    (fun (sinks, seed) ->
      let t = Rctree.Generate.random_steiner ~seed ~sinks ~die_um:4000.0 () in
      Rctree.Tree.sink_count t = sinks
      && Rctree.Tree.edge_count t = (2 * sinks) - 1
      && Array.length (Rctree.Tree.postorder t) = Rctree.Tree.node_count t)

(* ---------- text serialisation ---------- *)

let trees_equal t1 t2 =
  Rctree.Tree.node_count t1 = Rctree.Tree.node_count t2
  && Rctree.Tree.sink_count t1 = Rctree.Tree.sink_count t2
  && List.for_all
       (fun id ->
         Rctree.Tree.position t1 id = Rctree.Tree.position t2 id
         && Rctree.Tree.children t1 id = Rctree.Tree.children t2 id
         && Rctree.Tree.sink t1 id = Rctree.Tree.sink t2 id)
       (List.init (Rctree.Tree.node_count t1) Fun.id)

let test_io_roundtrip () =
  let t = Rctree.Generate.random_steiner ~seed:13 ~sinks:40 ~die_um:4000.0 () in
  let t' = Rctree.Io.of_string (Rctree.Io.to_string t) in
  Alcotest.(check bool) "roundtrip identical" true (trees_equal t t')

let test_io_roundtrip_explicit_wires () =
  (* Non-Manhattan wire lengths must survive the roundtrip. *)
  let t =
    Rctree.Tree.of_spec
      (Rctree.Tree.Node
         {
           x = 0.0;
           y = 0.0;
           children =
             [ (Rctree.Tree.Leaf { x = 10.0; y = 0.0; sink = sink "a" }, Some 999.0) ];
         })
  in
  let t' = Rctree.Io.of_string (Rctree.Io.to_string t) in
  Alcotest.(check (float 1e-9)) "explicit wire length" 999.0
    (Rctree.Tree.total_wirelength t')

let test_io_file_roundtrip () =
  let t = Rctree.Generate.random_steiner ~seed:14 ~sinks:25 ~die_um:4000.0 () in
  let path = Filename.temp_file "varbuf" ".tree" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rctree.Io.save path t;
      Alcotest.(check bool) "file roundtrip" true (trees_equal t (Rctree.Io.load path)))

let test_io_errors () =
  let expect_failure text =
    match Rctree.Io.of_string text with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected parse failure"
  in
  expect_failure "frob 0 root x 0 y 0";
  expect_failure "node 0 root x 0 y 0\nnode 0 root x 1 y 1";
  expect_failure "sink 1 x 0 y 0 parent 0 wire 1 cap 1 rat 0 name a";
  expect_failure "node 0 root x 0 y 0";
  expect_failure
    "node 0 root x 0 y 0\nsink 1 x 1 y 0 parent 0 wire 1 cap 1 rat 0 name a\nsink 2 x 2 y 0 parent 1 wire 1 cap 1 rat 0 name b";
  expect_failure "node 0 root x zero y 0"

let qcheck = Qseed.to_alcotest

let suite =
  [
    Alcotest.test_case "shape" `Quick test_shape;
    Alcotest.test_case "manhattan lengths" `Quick test_manhattan_lengths;
    Alcotest.test_case "parent / wire_to" `Quick test_parent_and_wire_to;
    Alcotest.test_case "postorder children first" `Quick test_postorder_children_first;
    Alcotest.test_case "fold_postorder" `Quick test_fold_postorder_counts_sinks;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "random steiner shape" `Quick test_random_steiner_shape;
    Alcotest.test_case "random steiner deterministic" `Quick
      test_random_steiner_deterministic;
    Alcotest.test_case "random steiner on die" `Quick test_random_steiner_sinks_on_die;
    Alcotest.test_case "random steiner validation" `Quick
      test_random_steiner_validation;
    Alcotest.test_case "h-tree shape" `Quick test_h_tree_shape;
    Alcotest.test_case "h-tree symmetric" `Quick test_h_tree_symmetric;
    Alcotest.test_case "h-tree validation" `Quick test_h_tree_validation;
    Alcotest.test_case "benchmarks match Table 1" `Quick test_benchmarks_match_table1;
    Alcotest.test_case "benchmarks find" `Quick test_benchmarks_find;
    Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip;
    Alcotest.test_case "io explicit wire lengths" `Quick
      test_io_roundtrip_explicit_wires;
    Alcotest.test_case "io file roundtrip" `Quick test_io_file_roundtrip;
    Alcotest.test_case "io parse errors" `Quick test_io_errors;
    qcheck prop_generated_trees_well_formed;
  ]
