"""Lint probe: counter-lifecycle misuse the linter must keep reporting.

Never executed; linted by the P3 lint workload, whose committed
expectation lists the finding on each marked line.
"""

from repro import Papi, create


def read_before_start():
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    return es.read()  # never started: PL001


def start_on_one_path(ready):
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    if ready:
        es.start()
    counts = es.read()  # started on one path only: PL301
    es.stop()
    return counts


def start_in_loop():
    papi = Papi(create("simPOWER"))
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    for attempt in range(2):
        es.start()  # the second iteration starts a running set: PL302
    return es.stop()  # zero iterations leave it unstarted: PL301


def finally_misses_stop(papi, work, log):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()  # the finally below never stops it: PL304
    try:
        work()
    finally:
        log()
    return es.stop()


def handler_leaks(papi, work):
    es = papi.create_eventset()
    es.add_named("PAPI_TOT_INS")
    es.start()  # the handler returns with the set running: PL303
    try:
        work()
    except ValueError:
        return None
    return es.stop()
