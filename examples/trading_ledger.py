#!/usr/bin/env python3
"""A BFT-replicated limit-order matching engine.

The paper motivates NeoBFT with permissioned blockchains for trading
(ASX/SGX-style venues) that need Byzantine fault tolerance *and* strict
latency. This example builds a tiny price-time-priority matching engine
as a replicated state machine, submits orders from several trading
gateways through aom, and shows that all replicas agree on every fill.

Demonstrates: writing a custom StateMachine (with undo support for
NeoBFT's speculative execution) and running it under any protocol.

Run:  python examples/trading_ledger.py
"""

import struct
from typing import List, Tuple

from repro.apps.statemachine import StateMachine
from repro.crypto.digests import sha256_digest
from repro.runtime import ClusterOptions, Measurement, build_cluster
from repro.sim.clock import ms

BUY, SELL = 0, 1


def encode_order(side: int, price: int, quantity: int) -> bytes:
    """Wire format for a limit order."""
    return struct.pack(">BII", side, price, quantity)


class MatchingEngine(StateMachine):
    """Price-time-priority limit order book.

    Orders rest as (price, quantity) lists per side; an incoming order
    crosses against the best opposing price levels. The result encodes
    the fills. Undo restores the book via a structural snapshot — cheap
    at order-book scale and exactly what speculative rollback needs.
    """

    def __init__(self):
        self.bids: List[Tuple[int, int]] = []  # sorted desc by price
        self.asks: List[Tuple[int, int]] = []  # sorted asc by price
        self.trades = 0
        self.volume = 0

    def snapshot(self):
        return (list(self.bids), list(self.asks), self.trades, self.volume)

    def restore(self, snapshot) -> None:
        self.bids, self.asks, self.trades, self.volume = (
            list(snapshot[0]), list(snapshot[1]), snapshot[2], snapshot[3],
        )

    def execute_with_undo(self, op: bytes):
        snapshot = self.snapshot()
        side, price, quantity = struct.unpack(">BII", op)
        fills = self._match(side, price, quantity)
        result = struct.pack(">I", len(fills)) + b"".join(
            struct.pack(">II", p, q) for p, q in fills
        )

        def undo() -> None:
            self.restore(snapshot)

        return result, undo

    def _match(self, side: int, price: int, quantity: int):
        book = self.asks if side == BUY else self.bids
        crosses = (lambda level: level <= price) if side == BUY else (lambda level: level >= price)
        fills = []
        while quantity and book and crosses(book[0][0]):
            level_price, level_quantity = book[0]
            traded = min(quantity, level_quantity)
            fills.append((level_price, traded))
            self.trades += 1
            self.volume += traded
            quantity -= traded
            if traded == level_quantity:
                book.pop(0)
            else:
                book[0] = (level_price, level_quantity - traded)
        if quantity:
            rest = self.bids if side == BUY else self.asks
            rest.append((price, quantity))
            rest.sort(key=lambda entry: -entry[0] if side == BUY else entry[0])
        return fills

    def digest(self) -> bytes:
        return sha256_digest(
            b"book:%d:%d:%r:%r" % (self.trades, self.volume, self.bids[:5], self.asks[:5])
        )


def main() -> None:
    options = ClusterOptions(
        protocol="neobft-hm",
        num_clients=6,  # six trading gateways
        seed=7,
        app_factory=MatchingEngine,
    )
    cluster = build_cluster(options)

    rng = cluster.sim.streams.get("orders")

    def next_order() -> bytes:
        side = rng.randrange(2)
        price = 1000 + rng.randrange(-5, 6)  # tight market around 1000
        quantity = 1 + rng.randrange(9)
        return encode_order(side, price, quantity)

    measurement = Measurement(
        cluster, warmup_ns=ms(2), duration_ns=ms(40), next_op=next_order
    )
    result = measurement.run()

    print(f"order throughput: {result.throughput_ops / 1e3:.1f} K orders/s, "
          f"p50 latency {result.median_latency_us:.1f} us")

    engines = [replica.app for replica in cluster.replicas]
    print(f"trades executed per replica: {[e.trades for e in engines]}")
    print(f"volume per replica:          {[e.volume for e in engines]}")
    digests = {engine.digest().hex()[:16] for engine in engines}
    print(f"order books agree across replicas: {len(digests) == 1} ({digests})")
    book = engines[0]
    print(f"best bid {book.bids[0] if book.bids else None}, "
          f"best ask {book.asks[0] if book.asks else None}")


if __name__ == "__main__":
    main()
