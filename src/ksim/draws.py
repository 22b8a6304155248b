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
