"""The benchmark's workloads: seeded inputs, deployments and references.

Every workload is generated from the seed before any server exists, and
carries its own reference: the result each input must produce, computed
here without the engine.  A round replays the same inputs against a
fresh deployment, so the work and every count derived from it are the
same in every round; WAL bytes alone grow with the process-wide
transaction ids, so they repeat round by round across runs of one seed.

Inputs come in *batches*: a batch is enqueued as a whole and the
deployment is then driven to quiescence.  The backlog phase uses large
batches (throughput); the closed-loop phase sends one request at a time
and waits for it (latency).
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro import DemaqServer, Network, run_cluster
from repro.queues import VirtualClock
from repro.workloads import (WorkloadConfig, procurement_application,
                             request_stream)


@dataclass
class Deployment:
    """The servers of one round, plus how to drive them to quiescence."""

    servers: list[DemaqServer]
    #: Index into ``servers`` and queue that external inputs enter.
    entry: tuple[int, str]
    #: Index into ``servers`` and queue holding the acknowledged results.
    results: tuple[int, str]
    drive: Callable[[], None]

    def send(self, body: str) -> None:
        server, queue = self.entry
        self.servers[server].enqueue(queue, body)

    def result_texts(self) -> list[str]:
        server, queue = self.results
        return self.servers[server].queue_texts(queue)

    def registry(self) -> dict[str, float]:
        """Production instruments (the ``/metrics`` registry), summed
        over every server of the deployment."""
        total: dict[str, float] = {}
        for server in self.servers:
            for name, value in server.metrics.values().items():
                total[name] = total.get(name, 0) + value
        return total

    def processed(self) -> int:
        return sum(s.executor.stats.messages_processed for s in self.servers)

    def wal_bytes(self) -> int:
        return sum(s.store.wal.end_lsn() for s in self.servers)

    def errors(self) -> int:
        """Failed rule evaluations and error documents, all servers."""
        count = 0
        for server in self.servers:
            unhandled = len(server.unhandled_errors)
            queued = sum(len(server.queue_texts(name))
                         for name in _error_queues(server)
                         if name in server.app.queues)
            count += max(server.executor.stats.rule_errors,
                         unhandled + queued)
        return count

    def power_cut(self) -> None:
        """Crash every node, discarding unforced log bytes, and restart."""
        for server in self.servers:
            server.store.simulate_crash(lose_unflushed=True)
            server.crash_and_recover()

    def close(self) -> None:
        for server in self.servers:
            server.close()


def _error_queues(server: DemaqServer) -> set[str]:
    app = server.app
    names = {q.error_queue for q in app.queues.values() if q.error_queue}
    names |= {r.error_queue for r in app.rules if r.error_queue}
    if app.system_error_queue:
        names.add(app.system_error_queue)
    return names


@dataclass
class Workload:
    """Seeded inputs for one round and the reference they must meet."""

    name: str
    warmup: list[list[str]]
    backlog: list[list[str]]
    closed_loop: list[str]
    #: Result key -> expected value, for every input of the round.
    expected: dict[str, str]
    #: Messages the engine must process in each phase.
    backlog_msgs: int
    closed_msgs: int
    deploy: Callable[[], Deployment]
    parse_result: Callable[[str], tuple[str, str]]

    @property
    def inputs(self) -> int:
        return sum(len(b) for b in self.backlog) + len(self.closed_loop)

    def check(self, texts: list[str]) -> tuple[int, list[str]]:
        """Compare the result queue against the reference.

        Returns the number of failed inputs (missing, duplicated or
        wrong results, plus results no input asked for) and messages
        describing the first few.
        """
        seen: Counter = Counter()
        wrong: list[str] = []
        for text in texts:
            key, value = self.parse_result(text)
            seen[key] += 1
            if self.expected.get(key) != value:
                wrong.append(f"{key}: got {value}, "
                             f"expected {self.expected.get(key)}")
        failed = len(wrong)
        problems = wrong[:3]
        for key in self.expected:
            if seen[key] != 1:
                failed += 1
                if len(problems) < 6:
                    problems.append(f"{key}: {seen[key]} results")
        return failed, problems


#: Inputs per backlog batch (enqueued together, then driven).
BATCH = 50


def _batches(bodies: list[str]) -> list[list[str]]:
    return [bodies[i:i + BATCH] for i in range(0, len(bodies), BATCH)]


# -- procurement (the paper's Fig. 3/4 application, compact form) ------------

PROCUREMENT_WARMUP = 20
PROCUREMENT_BACKLOG = 250
PROCUREMENT_CLOSED = 150
#: crm request + finance/legal checks + two results + the offer.
PROCUREMENT_FANOUT = 6


def _offer_key(text: str) -> tuple[str, str]:
    root = ET.fromstring(text)
    return (root.findtext("requestID", "").strip(), root.tag)


def procurement(seed: int) -> Workload:
    total = PROCUREMENT_WARMUP + PROCUREMENT_BACKLOG + PROCUREMENT_CLOSED
    bodies = [body for _, _, body in
              request_stream(total, WorkloadConfig(seed=seed))]
    warm = bodies[:PROCUREMENT_WARMUP]
    main = bodies[PROCUREMENT_WARMUP:PROCUREMENT_WARMUP
                  + PROCUREMENT_BACKLOG]
    closed = bodies[PROCUREMENT_WARMUP + PROCUREMENT_BACKLOG:]
    expected = {f"req-{i}": "offer" for i in range(total)}
    source = procurement_application()

    def deploy() -> Deployment:
        server = DemaqServer(source)
        return Deployment([server], entry=(0, "crm"),
                          results=(0, "customer"),
                          drive=server.run_until_idle)

    return Workload(
        name="procurement-mem",
        warmup=[warm], backlog=_batches(main), closed_loop=closed,
        expected=expected,
        backlog_msgs=PROCUREMENT_FANOUT * len(main),
        closed_msgs=PROCUREMENT_FANOUT * len(closed),
        deploy=deploy, parse_result=_offer_key)


# -- correlation-deep: large slices read in full on every arrival -------------

CUSTOMERS = 80
ORDERS_PER_INVOICE = 25
#: Waves enqueued as backlog; the rest arrive one order at a time.
BACKLOG_WAVES = 22
WARMUP_CUSTOMERS = 2

CORRELATION_APP = f"""
create queue orders kind basic mode persistent;
create queue invoices kind basic mode persistent;
create property customerID as xs:string fixed
    queue orders, invoices value //customerID;
create slicing customerOrders on customerID;
create rule settle for customerOrders
    if (count(qs:slice()[/order]) = {ORDERS_PER_INVOICE}
        and not(qs:slice()[/invoice])) then
        do enqueue <invoice><customerID>{{string(qs:slicekey())}}</customerID>
            <total>{{sum(qs:slice()/order/amount)}}</total></invoice>
            into invoices;
create rule close for customerOrders
    if (qs:slice()[/invoice]) then do reset
"""


def _invoice_key(text: str) -> tuple[str, str]:
    root = ET.fromstring(text)
    total = root.findtext("total", "").strip()
    return (root.findtext("customerID", "").strip(),
            str(int(float(total))) if total else "")


def correlation(seed: int) -> Workload:
    rng = random.Random(seed)
    totals: dict[str, int] = {}

    def waves(customers: list[str]) -> list[list[str]]:
        out = []
        for wave in range(ORDERS_PER_INVOICE):
            batch = []
            for customer in customers:
                amount = rng.randrange(1, 1000)
                totals[customer] = totals.get(customer, 0) + amount
                batch.append(
                    f"<order><customerID>{customer}</customerID>"
                    f"<orderID>{customer}-{wave}</orderID>"
                    f"<amount>{amount}</amount></order>")
            out.append(batch)
        return out

    warm = waves([f"warm-{i}" for i in range(WARMUP_CUSTOMERS)])
    main = waves([f"cust-{i}" for i in range(CUSTOMERS)])
    backlog = main[:BACKLOG_WAVES]
    closed = [body for batch in main[BACKLOG_WAVES:] for body in batch]

    def deploy() -> Deployment:
        server = DemaqServer(CORRELATION_APP)
        return Deployment([server], entry=(0, "orders"),
                          results=(0, "invoices"),
                          drive=server.run_until_idle)

    return Workload(
        name="correlation-deep", warmup=warm, backlog=backlog,
        closed_loop=closed,
        expected={c: str(t) for c, t in totals.items()},
        backlog_msgs=sum(len(b) for b in backlog),
        # every order, plus the invoice the last wave completes per slice
        closed_msgs=len(closed) + CUSTOMERS,
        deploy=deploy, parse_result=_invoice_key)


# -- gateway-relay: quotes through a gateway pair on the in-process network ---

GATEWAY_WARMUP = 20
GATEWAY_BACKLOG = 400
GATEWAY_CLOSED = 150
#: client outgoing, supplier incoming, supplier outgoing, client incoming.
GATEWAY_HOPS = 4

CLIENT_APP = """
create queue toSupplier kind outgoingGateway mode persistent
    endpoint "demaq://supplier/quotes";
create queue quoteReplies kind incomingGateway mode persistent
    endpoint "demaq://client/quoteReplies";
"""

SUPPLIER_APP = """
create queue quotes kind incomingGateway mode persistent
    endpoint "demaq://supplier/quotes";
create queue replies kind outgoingGateway mode persistent
    endpoint "demaq://client/quoteReplies";
create rule price for quotes
    if (//quote) then
        do enqueue <reply>{//quoteID}
            <price>{sum(for $l in //line return $l/qty * $l/unit)}</price>
            </reply> into replies
"""


def _reply_key(text: str) -> tuple[str, str]:
    root = ET.fromstring(text)
    price = root.findtext("price", "").strip()
    return (root.findtext("quoteID", "").strip(),
            str(int(float(price))) if price else "")


def gateway(seed: int) -> Workload:
    rng = random.Random(seed)
    expected: dict[str, str] = {}
    bodies = []
    for index in range(GATEWAY_WARMUP + GATEWAY_BACKLOG + GATEWAY_CLOSED):
        lines = [(rng.randrange(1, 10), rng.randrange(1, 100))
                 for _ in range(rng.randrange(1, 5))]
        quote_id = f"q-{index}"
        expected[quote_id] = str(sum(q * u for q, u in lines))
        bodies.append(
            f"<quote><quoteID>{quote_id}</quoteID>"
            + "".join(f"<line><qty>{q}</qty><unit>{u}</unit></line>"
                      for q, u in lines) + "</quote>")
    warm = bodies[:GATEWAY_WARMUP]
    main = bodies[GATEWAY_WARMUP:GATEWAY_WARMUP + GATEWAY_BACKLOG]
    closed = bodies[GATEWAY_WARMUP + GATEWAY_BACKLOG:]

    def deploy() -> Deployment:
        clock = VirtualClock()
        network = Network(clock)
        client = DemaqServer(CLIENT_APP, clock=clock, network=network,
                             name="client")
        supplier = DemaqServer(SUPPLIER_APP, clock=clock, network=network,
                               name="supplier")
        return Deployment([client, supplier], entry=(0, "toSupplier"),
                          results=(0, "quoteReplies"),
                          drive=lambda: run_cluster([client, supplier]))

    return Workload(
        name="gateway-relay", warmup=[warm], backlog=_batches(main),
        closed_loop=closed, expected=expected,
        backlog_msgs=GATEWAY_HOPS * len(main),
        closed_msgs=GATEWAY_HOPS * len(closed),
        deploy=deploy, parse_result=_reply_key)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "procurement-mem": procurement,
    "correlation-deep": correlation,
    "gateway-relay": gateway,
}
