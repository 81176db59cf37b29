type result = { live : int; collected : int; live_bytes : int }

let collect heap ~roots =
  let collected = Heap.mark_compact heap ~roots in
  { live = Heap.live_objects heap; collected; live_bytes = Heap.used_bytes heap }
