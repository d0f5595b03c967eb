#!/usr/bin/env python
"""The PAPI-3 memory utilization extension with threads.

Exercises every routine the paper's Section 5 plans:

- memory available on the node,
- total memory used (high-water mark),
- memory used by process/thread,
- disk swapping by process,
- process/memory locality,
- location of memory used by an object.

Two threads with different footprints run under the simulated OS; a
third scenario shrinks physical memory to trigger the swap model.

Run:  python examples/memory_utilization.py
"""

from repro import Papi, create
from repro.analysis import Table
from repro.core.memory import dmem_info, dmem_locality, object_location
from repro.simos import OS
from repro.workloads import tlb_walker


def main() -> None:
    substrate = create("simPOWER")
    papi = Papi(substrate)
    os_ = substrate.os
    page_words = substrate.machine.hierarchy.config.tlb.page_bytes // 8

    # -- two threads with different footprints -----------------------------
    small = os_.spawn(tlb_walker(6, page_words=page_words).program,
                      name="small")
    large = os_.spawn(tlb_walker(40, page_words=page_words).program,
                      name="large")
    os_.run()

    table = Table(["thread", "RSS pages", "RSS bytes", "high-water mark"],
                  title="per-thread memory utilization (PAPI_get_dmem_info)")
    for t in (small, large):
        info = dmem_info(papi, t)
        table.add_row(t.name, info.thread_rss_pages, info.thread_rss_bytes,
                      info.thread_hwm_pages)
    print(table.render())

    node = dmem_info(papi, small)
    print(f"\nnode: {node.total_pages} pages physical, "
          f"{node.used_pages} used, {node.free_pages} free, "
          f"{node.swapped_pages} swapped")

    # -- locality -----------------------------------------------------------
    hist = dmem_locality(papi, large, buckets=4)
    print("\nlocality of 'large' (pages per address-region bucket):", hist)

    # -- swapping under pressure ---------------------------------------------
    print("\n-- now with only 16 physical pages on the node --")
    sub2 = create("simPOWER")
    papi2 = Papi(sub2)
    os2 = OS(sub2.machine, phys_pages=16)
    sub2.os = os2  # the memory routines read the substrate's OS
    hog = os2.spawn(tlb_walker(48, page_words=page_words).program,
                    name="hog")
    os2.run()
    info = dmem_info(papi2, hog)
    print(f"hog RSS={info.thread_rss_pages} pages, node capacity "
          f"{info.total_pages} -> {info.swapped_pages} pages swapped out, "
          f"{info.swap_events} swap events")

    # -- object location ------------------------------------------------------
    print("\n-- location of memory used by an object --")
    sub3 = create("simPOWER")
    papi3 = Papi(sub3)
    wl = tlb_walker(8, page_words=page_words)
    sub3.machine.load(wl.program)
    sub3.machine.run_to_completion()
    loc = object_location(papi3, base_word=0,
                          length_words=8 * page_words)
    print(f"array spans pages {loc['first_page']}..{loc['last_page']} "
          f"({loc['pages_spanned']} pages), {loc['pages_touched']} touched")


if __name__ == "__main__":
    main()
