"""The one rule by which ksim draws a uniform choice."""

from __future__ import annotations


def below(getrandbits, n: int) -> int:
    """A uniform integer in [0, n), drawn from `getrandbits` (a
    `random.Random`'s bound method).

    It draws n.bit_length() bits until the value is below n.  That is
    CPython's own rule for `randrange(n)` and `choice`
    (`_randbelow_with_getrandbits`), so it reads the same words of the
    stream and leaves it in the same state; ksim's replay rests on
    `getrandbits` alone.  An n below 1 raises ValueError: `getrandbits(0)`
    is 0, so the loop would never end."""
    if n < 1:
        raise ValueError(f"below needs n >= 1, got {n}")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def skip_certain(getrandbits, m: int) -> None:
    """Leave the stream of `getrandbits` where m calls of
    `below(getrandbits, 1)` would, without their m results (all 0).

    Each such call reads 32-bit words until one has top bit 0, which is
    what `getrandbits(1)` returns of a word.  An m below 0 raises
    ValueError before any draw."""
    if m < 0:
        raise ValueError(f"skip_certain needs m >= 0, got {m}")
    for _ in range(m):
        while getrandbits(1):
            pass
