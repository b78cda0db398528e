(* Memoising result cache for the request handler.

   A response is a pure function of the request payload minus its
   routing fields ([id] is echoed verbatim and [deadline_ms] only
   bounds how long the computation may take — neither changes the
   result), so the canonical key is the re-encoded request with both
   zeroed.  The encoding is the binary v2 one ({!Codec_bin}), whatever
   wire the request arrived on: it covers every field, and it costs a
   small fraction of the v1 text encoder (which prints the tree as
   text), on every request the worker answers, hits included.  Keys are
   digests: the tree dominates payload size and storing it per entry
   would defeat the point of a bounded cache.

   Storage and eviction live in {!Lru}; this module adds the key
   derivation and the mutex (pool workers only touch the cache once
   per request). *)

type t = { lru : Protocol.response Lru.t; mutex : Mutex.t }

let create ~entries =
  if entries < 1 then invalid_arg "Serve.Cache.create: entries must be >= 1";
  { lru = Lru.create ~capacity:entries; mutex = Mutex.create () }

let key_of_request (req : Protocol.request) =
  Digest.to_hex
    (Digest.string
       (Codec_bin.encode_request { req with Protocol.id = 0; deadline_ms = 0 }))

let find t key =
  Mutex.lock t.mutex;
  let r = Lru.find t.lru key in
  Mutex.unlock t.mutex;
  r

let add t key resp =
  Mutex.lock t.mutex;
  Lru.put t.lru key resp;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = Lru.length t.lru in
  Mutex.unlock t.mutex;
  n

type stats = { entries : int; capacity : int; hits : int; misses : int }

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      entries = Lru.length t.lru;
      capacity = Lru.capacity t.lru;
      hits = Lru.hits t.lru;
      misses = Lru.misses t.lru;
    }
  in
  Mutex.unlock t.mutex;
  s
