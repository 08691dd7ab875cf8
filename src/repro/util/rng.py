"""Deterministic random-number streams.

The cloud simulator must be reproducible (tests and experiments depend on
exact re-runs) while still modelling multi-tenant variability.  We derive
independent substreams from a root seed plus a string *context* (e.g. a
configuration's key and a run index), so that simulating one configuration
never perturbs the noise drawn for another — a property the exhaustive
sweeps in the experiment harness rely on.

A stream is cheap to create and costly to seed (a hash plus a PCG64
seeding, tens of microseconds), and many streams are never drawn from:
a simulated run splits off a fault stream that is only read when the
platform injects faults, and its root stream only labels the children.
So an :class:`RngStream` seeds its generator on first use.  Seeding on
first use changes no draw: a stream's numbers depend only on its
derivation, never on when it was seeded.  Threads may share a stream
(trace-id minting does): when several make its first draw at once,
exactly one generator is installed and every thread draws from it.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream_seed", "RngStream"]


def stream_seed(root_seed: int, *context: object) -> int:
    """Derive a stable 64-bit seed from a root seed and context values.

    The derivation hashes the repr of every context item, so any hashable
    *and* printable value (str, int, tuples of them) can label a stream.
    """
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(str(int(root_seed)).encode())
    for item in context:
        hasher.update(b"\x1f")
        hasher.update(repr(item).encode())
    return int.from_bytes(hasher.digest(), "little")


class RngStream:
    """A named, reproducible random stream.

    Thin wrapper over :class:`numpy.random.Generator` that remembers its
    derivation so child streams can be split off deterministically.  The
    generator is seeded on first use (see the module docstring), so
    creating a stream, or splitting children off one, costs no seeding;
    a child of a never-drawn parent draws what it would draw anyway.

    Thread safety: concurrent first draws on a shared stream install one
    generator (the first to land wins), and numpy serializes draws on a
    generator, so no draw is lost or repeated.
    """

    def __init__(self, root_seed: int, *context: object) -> None:
        self.root_seed = int(root_seed)
        self.context = tuple(context)

    def child(self, *context: object) -> "RngStream":
        """Split off an independent substream labelled by extra context."""
        return RngStream(self.root_seed, *self.context, *context)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy Generator, seeded on first use.

        Always the same object for one stream.
        """
        try:
            return self.__dict__["_gen"]
        except KeyError:
            seeded = np.random.default_rng(stream_seed(self.root_seed, *self.context))
            # Racing first draws each seed a generator; setdefault is
            # atomic, so all of them return the one that landed first.
            return self.__dict__.setdefault("_gen", seeded)

    def lognormal_factor(self, sigma: float) -> float:
        """Draw a multiplicative noise factor with unit median.

        ``sigma`` is the log-space standard deviation; ``sigma == 0``
        returns exactly 1.0 so noise can be switched off cheaply.
        """
        if sigma <= 0.0:
            return 1.0
        return float(np.exp(self.generator.normal(0.0, sigma)))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw from [low, high)."""
        return float(self.generator.uniform(low, high))

    def choice(self, seq):
        """Pick one element of a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self.generator.integers(0, len(seq)))]

    def shuffled(self, seq) -> list:
        """Return a shuffled copy of ``seq`` (the input is untouched)."""
        out = list(seq)
        self.generator.shuffle(out)
        return out
