(* One QCheck seed for the whole suite: [QCHECK_SEED] when set,
   otherwise drawn once per run.  Every property gets a fresh random
   state made from that seed, so a property's cases do not depend on
   which other properties ran before it, and a failing property prints
   the command-line setting that replays it. *)

let seed =
  lazy
    (let s =
       match Sys.getenv_opt "QCHECK_SEED" with
       | Some v -> (
         match int_of_string_opt (String.trim v) with
         | Some s -> s
         | None -> failwith ("QCHECK_SEED is not an integer: " ^ v))
       | None ->
         Random.self_init ();
         Random.int 1_000_000_000
     in
     Printf.printf "qcheck random seed: %d\n%!" s;
     s)

let to_alcotest t =
  let seed = Lazy.force seed in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
  in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf "%s failed under QCHECK_SEED=%d; replay with\n  \
                       QCHECK_SEED=%d dune exec test/test_main.exe\n%!"
          name seed seed;
        raise e )
