"""Request-sequence generators.

Generation is oblivious: a spec plus its own seed fully determines the
sequence before any algorithm randomness is drawn, and the generator stream
is a separate Random instance from every algorithm stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .draws import below
from .files import load_requests, parse_int
from .metric import HstSpace, PointId, check_int

# the parameters each generator kind reads; any other key is rejected
PARAMS = {"uniform_random": (), "block_sweep": ("width", "passes"),
          "phase_stress": ("block", "width"), "file": ("path",)}
KINDS = tuple(PARAMS)


@dataclass
class GeneratorSpec:
    kind: str
    length: int
    seed: int = 0
    params: dict = field(default_factory=dict)


def _leaf_blocks(space: HstSpace) -> list[tuple[PointId, ...]]:
    if space.height == 1:
        return [space.subtree_leaf_points(0)]
    return [space.subtree_leaf_points(c) for c in space.children[0]]


def generate(spec: GeneratorSpec, space: HstSpace) -> list[PointId]:
    """The sequence `spec` asks for on `space`.

    The length, the seed and every int parameter go through `check_int`:
    the length is at least 0, `block_sweep`'s `passes` at least 1, and a
    `width` or `block` at least 0 (a `width` of 0 is the whole block, a
    `block` wraps around the blocks).  A file's `path` is text."""
    check_int("length", spec.length, 0)
    check_int("seed", spec.seed)
    if spec.kind not in PARAMS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    unknown = sorted(set(spec.params) - set(PARAMS[spec.kind]))
    if unknown:
        raise ValueError(f"unknown {spec.kind} parameter {unknown[0]!r}")
    if spec.kind == "uniform_random":
        getrandbits = random.Random(spec.seed).getrandbits
        n = space.n_leaves
        return [below(getrandbits, n) for _ in range(spec.length)]

    if spec.kind == "block_sweep":
        # bursts sweep a few distinct points of one block several times over,
        # driving that block's demand up while starving the others, then move
        # to the next block; built to provoke jumps and phase turnover
        blocks = _leaf_blocks(space)
        width = check_int("block_sweep width", spec.params.get("width", 0), 0)
        passes = check_int("block_sweep passes", spec.params.get("passes", 4), 1)
        out: list[PointId] = []
        burst = 0
        while len(out) < spec.length:
            blk = blocks[burst % len(blocks)]
            w = min(len(blk), width) if width > 0 else len(blk)
            for _ in range(passes):
                for p in blk[:w]:
                    out.append(p)
                    if len(out) == spec.length:
                        return out
            burst += 1
        return out

    if spec.kind == "phase_stress":
        # cycle over a fixed set of distinct leaves under one node; with one
        # more leaf than servers this forces a fault per round of marking
        blocks = _leaf_blocks(space)
        blk = blocks[check_int("phase_stress block", spec.params.get("block", 0), 0)
                     % len(blocks)]
        width = check_int("phase_stress width", spec.params.get("width", len(blk)), 0)
        width = max(1, min(width, len(blk)))
        return [blk[i % width] for i in range(spec.length)]

    # the one kind left: file
    path = spec.params.get("path")
    if not path:
        raise ValueError("file generator needs params['path']")
    reqs = load_requests(path, space.n_leaves)
    return reqs[: spec.length] if spec.length else reqs


def parse_generator(text: str, length: Optional[int] = None,
                    seed: Optional[int] = None) -> GeneratorSpec:
    """Parse 'kind[:key=value,...]' as used by the command line.

    `length`, `seed` and the kind's parameters but a file's `path` are
    `parse_int` literals, parsed here, so the spec holds ints; a bad one is
    refused with its key named.  A key the kind does not read stays text
    for `generate` to refuse."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}; expected one of {KINDS}")
    ints = {"length", "seed", *PARAMS[kind]} - {"path"}
    params: dict = {}
    if rest:
        for item in rest.split(","):
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"bad generator parameter {item!r}, expected key=value")
            key, value = key.strip(), value.strip()
            if key in ints:
                try:
                    value = parse_int(value)
                except ValueError as exc:
                    raise ValueError(f"generator parameter {key}: {exc}") from None
            params[key] = value
    return GeneratorSpec(kind=kind, length=params.pop("length", length or 0),
                         seed=params.pop("seed", seed or 0), params=params)
