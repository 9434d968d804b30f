"""Value ranges declared on dataclass fields: ``check_ranges`` checks a
dataclass against them and ``config.SCHEMA`` reads them, so a config key
and the field behind it accept exactly the same values."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class Range:
    """lo <= v <= hi, either end optionally open; ``check`` also refuses a
    non-finite v, so a range with no ends admits any finite value."""

    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False

    def __contains__(self, v):
        return ((v > self.lo if self.open_lo else v >= self.lo)
                and (v < self.hi if self.open_hi else v <= self.hi))

    def __str__(self):
        return (f"{'(' if self.open_lo else '['}{self.lo}, "
                f"{self.hi}{')' if self.open_hi else ']'}")

    def check(self, name, value, error):
        # unlike math.isfinite, the comparison takes ints of any size
        if not -math.inf < value < math.inf:
            raise error(f"{name}: value {value} must be finite")
        if value not in self:
            raise error(f"{name}: value {value} out of range {self}")


FINITE = Range()
AT_LEAST_1 = Range(lo=1)
NON_NEGATIVE = Range(lo=0)
POSITIVE = Range(lo=0, open_lo=True)
UNIT = Range(0, 1)
# an array dimension or a count: the corpus and checkpoint store each as u32
SIZE = Range(1, 2**32 - 1)


def knob(default, rng=None, key=None):
    """A dataclass field with its default, its range (None: any value) and
    the config key it reads when that is not ``<namespace>.<field name>``."""
    return field(default=default, metadata={"range": rng, "key": key})


def check_ranges(obj, error):
    """Raise ``error`` naming the first field of ``obj`` outside its range."""
    for f in fields(obj):
        if f.metadata.get("range") is not None:
            f.metadata["range"].check(f.name, getattr(obj, f.name), error)
