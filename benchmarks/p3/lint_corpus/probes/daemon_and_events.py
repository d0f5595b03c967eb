"""Lint probe: daemon-client and event-name misuse.

Never executed; linted by the P3 lint workload, whose committed
expectation lists the finding on each marked line.
"""

from repro import Papi, create
from repro.daemon import DaemonConfig, PapidClient, PapidServer, SessionSpec


def unclosed_client():
    server = PapidServer(DaemonConfig(transport="inline"))
    client = PapidClient(server)  # never closed: PL018
    client.create(SessionSpec(sid="probe-0"))


def unknown_component():
    papi = Papi(create("simX86"))
    es = papi.create_eventset()
    es.add_named("gpu:::NO_SUCH_EVENT")  # unknown component: PL010


def counter_conflict():
    papi = Papi(create("simX86"))
    es = papi.create_eventset()
    es.add_named("PAPI_FP_OPS", "PAPI_L1_DCM")  # both pin counter 0: PL101
    es.start()
    return es.stop()
