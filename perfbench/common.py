"""Graph and permutation helpers of the benchmark's own.

Nothing here imports smallmotion: the benchmark encodes its inputs and
re-checks the program's witnesses with this code, so a defect in the
library cannot hide behind a check that uses the library.

Conventions match the program's interchange formats: vertices and points
are 0-indexed, graph6 is the standard format, and cycle notation is
1-indexed, as in ``(1,2)(3,4)``.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(HERE, "data")
WORKLOADS = ("vt-corpus", "motion-large", "group-tables")


def data_path(workload: str) -> str:
    return os.path.join(DATA_DIR, workload + ".json")


def load_data(workload: str) -> dict:
    with open(data_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# graphs as (n, sorted edge list)

def g6_encode(n: int, edges) -> str:
    """Standard graph6 for a simple graph on 0..n-1."""
    if n <= 62:
        header = chr(n + 63)
    else:
        header = chr(126) + "".join(chr(((n >> s) & 63) + 63)
                                    for s in (12, 6, 0))
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
        for k in range(0, len(bits), 6))
    return header + body


def g6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    data = [ord(c) - 63 for c in text.strip()]
    if data[0] == 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n, body = data[0], data[1:]
    bits = [(d >> s) & 1 for d in body for s in range(5, -1, -1)]
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return n, edges


def relabel_edges(edges, images) -> list[tuple[int, int]]:
    """Edges of the image graph under the vertex map v -> images[v]."""
    out = []
    for u, v in edges:
        a, b = images[u], images[v]
        out.append((a, b) if a < b else (b, a))
    return sorted(out)


def edge_set(edges) -> set:
    return {(u, v) if u < v else (v, u) for u, v in edges}


def is_graph_automorphism(eset: set, images) -> bool:
    """Does the vertex map carry the edge set onto itself?"""
    if sorted(images) != list(range(len(images))):
        return False
    for u, v in eset:
        a, b = images[u], images[v]
        if ((a, b) if a < b else (b, a)) not in eset:
            return False
    return True


# ---------------------------------------------------------------------------
# permutations as image tuples

def support_size(images) -> int:
    return sum(1 for i, x in enumerate(images) if i != x)


def parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """Images of a permutation written in 1-indexed cycle notation."""
    images = list(range(n))
    text = text.strip()
    if text in ("", "()"):
        return tuple(images)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation {text!r}")
    seen = set()
    for chunk in text[1:-1].split(")("):
        cyc = [int(tok) - 1 for tok in chunk.split(",")]
        for i, a in enumerate(cyc):
            if a in seen or not 0 <= a < n:
                raise ValueError(f"bad cycle notation {text!r}")
            seen.add(a)
            images[a] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def compose(p, q) -> tuple[int, ...]:
    """Apply p first, then q (the program's right-action convention)."""
    return tuple(q[x] for x in p)


def cycle_lengths(p) -> tuple[int, ...]:
    """Lengths of the nontrivial cycles, longest first."""
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if seen[s] or p[s] == s:
            continue
        k = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = p[x]
            k += 1
        out.append(k)
    return tuple(sorted(out, reverse=True))


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def group_elements(degree: int, gens) -> frozenset:
    """All elements of the group generated by gens, by breadth-first closure."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                e = compose(h, g)
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return frozenset(seen)
