"""Named group families, the classification tables, row checkers, and the
transitive-group classifiers for small minimal degree.

Constructible families are built from explicit generators; table rows
naming groups not built here (Mathieu groups and semilinear groups over
proper prime-power fields) are metadata only, with no ``x_spec``.  Each
row's rule ``matches`` says which (p, m, X, Y) it names, by the family
names of X and Y (the reference names of the pair table); a metadata row
matches nothing, and ``_match_row`` takes a table's first matching row.
Projective lines are labeled 0, ..., p-1, infinity with infinity at
index p and the convention a/0 = infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import factorial, gcd, prod
from typing import Callable, Optional

from .permcore import (MAX_AGL_DIMENSION, MAX_FIELD_PRIME, PermGroup,
                       Permutation, is_two_two, orbit, orbits,
                       permutation_isomorphic, _is_prime, _then)
from .wreath import (base_group_element, top_group_element, top_part,
                     wreath_product)


# ---------------------------------------------------------------------------
# constructors

def sym_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("degree must be positive")
    gens = []
    if n >= 2:
        gens.append(Permutation.from_cycles(n, [[0, 1]]))
    if n >= 3:
        gens.append(Permutation.from_cycles(n, [list(range(n))]))
    return PermGroup(n, gens)


def alt_group(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("degree must be positive")
    if n < 3:
        return PermGroup(n, [])
    gens = [Permutation.from_cycles(n, [[0, 1, 2]])]
    if n > 3:
        if n % 2:
            gens.append(Permutation.from_cycles(n, [list(range(n))]))
        else:
            gens.append(Permutation.from_cycles(n, [list(range(1, n))]))
    return PermGroup(n, gens)


def cyclic_group(n: int) -> PermGroup:
    return PermGroup(n, [Permutation.from_cycles(n, [list(range(n))])])


def dihedral_group(m: int) -> PermGroup:
    """Rotation plus reflection on m points (order 2m)."""
    if m < 3:
        raise ValueError("dihedral group needs at least 3 points")
    rot = Permutation.from_cycles(m, [list(range(m))])
    refl = Permutation([(-i) % m for i in range(m)])
    return PermGroup(m, [rot, refl])


def _smallest_primitive_root(p: int) -> int:
    for g in range(2, p):
        if len({pow(g, k, p) for k in range(1, p)}) == p - 1:
            return g
    raise ValueError(f"{p} is not prime")


def agl1(p: int) -> PermGroup:
    """The affine group x -> ax + b on the prime field, order p(p-1)."""
    if not _is_prime(p) or p > MAX_FIELD_PRIME:
        raise ValueError(f"need a prime p <= {MAX_FIELD_PRIME}")
    shift = Permutation([(x + 1) % p for x in range(p)])
    if p == 2:
        return PermGroup(2, [shift])
    g = _smallest_primitive_root(p)
    mult = Permutation([x * g % p for x in range(p)])
    return PermGroup(p, [shift, mult])


def _fractional_map(a: int, b: int, c: int, d: int, p: int) -> Permutation:
    """z -> (az+b)/(cz+d) on the projective line; index p is infinity."""
    inf = p
    images = []
    for z in range(p):
        den = (c * z + d) % p
        if den == 0:
            images.append(inf)
        else:
            images.append((a * z + b) * pow(den, -1, p) % p)
    images.append(a * pow(c, -1, p) % p if c % p else inf)
    return Permutation(images)


def psl2(p: int) -> PermGroup:
    """PSL_2(p) on the p+1 points of the projective line."""
    if not _is_prime(p) or p > MAX_FIELD_PRIME:
        raise ValueError(f"need a prime p <= {MAX_FIELD_PRIME}")
    t = _fractional_map(1, 1, 0, 1, p)       # z -> z + 1
    s = _fractional_map(0, -1 % p, 1, 0, p)  # z -> -1/z
    return PermGroup(p + 1, [t, s])


def pgl2(p: int) -> PermGroup:
    """PGL_2(p) on the p+1 points of the projective line (``psl2`` checks
    p)."""
    gens = list(psl2(p).generators)
    if p > 2:
        g = _smallest_primitive_root(p)
        gens.append(_fractional_map(g, 0, 0, 1, p))  # z -> g*z
    return PermGroup(p + 1, gens)


def _gl2_matrix_perms(d: int, nonzero_only: bool) -> list[Permutation]:
    """Generators of GL_d(2) acting on (nonzero) vectors of F_2^d.

    Vectors are encoded as bitmasks; vector v has index v-1 when only
    nonzero vectors are used, else index v.
    """
    def mat_to_perm(mat):
        # y_j = sum_i x_i * mat[i][j]
        def image(v):
            return sum((sum(v >> i & mat[i][j] for i in range(d)) & 1) << j
                       for j in range(d))
        if nonzero_only:
            return Permutation([image(v + 1) - 1 for v in range(2 ** d - 1)])
        return Permutation([image(v) for v in range(2 ** d)])

    ident = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    transvection = [row[:] for row in ident]
    transvection[0][1] ^= 1                      # e1 -> e1 + e2
    cyc = [[1 if j == (i + 1) % d else 0 for j in range(d)] for i in range(d)]
    swap = [row[:] for row in ident]
    swap[0], swap[1] = swap[1], swap[0]
    return [mat_to_perm(m) for m in (transvection, cyc, swap)]


def pgl3_2() -> PermGroup:
    """PGL_3(2) = GL_3(2) on the 7 nonzero vectors of F_2^3, order 168."""
    return PermGroup(7, _gl2_matrix_perms(3, nonzero_only=True))


def agl_d2(d: int) -> PermGroup:
    """AGL_d(2) on the 2^d vectors: translations plus GL_d(2)."""
    if not 1 <= d <= MAX_AGL_DIMENSION:
        raise ValueError(f"need 1 <= d <= {MAX_AGL_DIMENSION}")
    n = 2 ** d
    gens = [Permutation([v ^ (1 << i) for v in range(n)]) for i in range(d)]
    if d >= 2:
        gens.extend(_gl2_matrix_perms(d, nonzero_only=False))
    return PermGroup(n, gens)


@dataclass(frozen=True)
class GroupSpec:
    """A named constructible group family, built by ``construct``."""

    family: str
    params: tuple = ()

    def __str__(self) -> str:
        if self.params:
            return f"{self.family}({', '.join(map(str, self.params))})"
        return self.family


# family -> (constructor, the group's order in the same parameters)
_CONSTRUCTORS = {
    "Sym": (sym_group, factorial), "Cyclic": (cyclic_group, lambda d: d),
    "Alt": (alt_group, lambda d: max(factorial(d) // 2, 1)),
    "Dihedral": (dihedral_group, lambda m: 2 * m),
    "AGL1": (agl1, lambda p: p * (p - 1)),
    "PSL2": (psl2, lambda p: p * (p * p - 1) // gcd(2, p - 1)),
    "PGL2": (pgl2, lambda p: p * (p * p - 1)), "PGL3_2": (pgl3_2, lambda: 168),
    "AGLd2": (agl_d2, lambda d: 2 ** d * prod(2 ** d - 2 ** i
                                             for i in range(d)))}


@cache
def construct(spec: GroupSpec) -> PermGroup:
    """The family's group, built once and shared: never extend its chain."""
    if spec.family in _CONSTRUCTORS:
        return _CONSTRUCTORS[spec.family][0](*spec.params)
    raise ValueError(f"unknown family {spec!r}")


def family_order(spec: GroupSpec) -> int:
    """The order of ``construct(spec)``, from the family's closed form."""
    return _CONSTRUCTORS[spec.family][1](*spec.params)


# ---------------------------------------------------------------------------
# table data

@dataclass(frozen=True)
class TableRow:
    """One row of the classification tables.

    ``condition`` is the last-column tag of the p-cycle table
    (always / never / cond_C / p3_and_C) or not_applicable for the other
    tables.  ``x_spec(*params)`` returns (p, m, X, Y) for a constructible
    row; it is None for a metadata-only row, which ``check_table_row``
    refuses.
    ``sample_params`` gives desk-scale concrete parameters for checking.
    ``matches(p, m, x, y)`` says whether the row names a sandwich, from p,
    the block size m and the names x and y of X's and Y's families (of
    the pair-table references in Table 4), None when unrecognised; a
    metadata-only row matches nothing.
    """

    table: int
    index: int
    p_desc: str
    m_desc: str
    x_desc: str
    y_desc: str
    condition: str
    x_spec: Optional[Callable[..., tuple[int, PermGroup, PermGroup]]] = None
    sample_params: tuple = ()
    matches: Callable[..., bool] = lambda p, m, x, y: False

    @property
    def constructible(self) -> bool:
        return self.x_spec is not None

    def predicts_p(self, p: int, cond_c: Optional[bool]) -> bool:
        """A Table 1 row's prediction that the minimal degree is p."""
        return {"always": True, "never": False, "cond_C": bool(cond_c),
                "p3_and_C": p == 3 and bool(cond_c)}[self.condition]


TABLE1 = (
    TableRow(1, 1, "2", "m>=2", "Sym(m)", "Sym(m)", "always",
             lambda m: (2, m, sym_group(m), sym_group(m)), ((3,), (4,)),
             lambda p, m, x, y: p == 2 and x == y == "Sym"),
    TableRow(1, 2, ">=3", "m>=3", "Alt(m)", "Sym(m)", "p3_and_C",
             lambda m, p: (p, m, alt_group(m), sym_group(m)),
             ((4, 3), (5, 3)),
             lambda p, m, x, y: p >= 3 and x == "Alt" and y in ("Alt", "Sym")),
    TableRow(1, 3, ">=5", "p", "C_p", "AGL1(p)", "cond_C",
             lambda p: (p, p, cyclic_group(p), agl1(p)), ((5,), (7,)),
             lambda p, m, x, y: p >= 5 and m == p and x == "Cyclic"),
    TableRow(1, 4, "(q^d-1)/(q-1)", "p", "PGL_d(q)", "PGammaL_d(q)", "never",
             lambda: (7, 7, pgl3_2(), pgl3_2()), ((),),
             lambda p, m, x, y: m == 7 and x == "PGL3_2"),
    TableRow(1, 5, "11", "11", "PSL2(11)", "PSL2(11)", "never"),
    TableRow(1, 6, "11", "11", "M11", "M11", "never"),
    TableRow(1, 7, "23", "23", "M23", "M23", "never"),
    TableRow(1, 8, "Mersenne 2^a-1", "2^a", "AGL1(2^a)", "AGammaL1(2^a)",
             "cond_C"),
    TableRow(1, 9, "Mersenne 2^d-1", "2^d", "AGL_d(2)", "AGammaL_d(2)",
             "never", lambda d: (2 ** d - 1, 2 ** d, agl_d2(d), agl_d2(d)),
             ((2,), (3,)), lambda p, m, x, y: x == "AGLd2" and p == m - 1),
    TableRow(1, 10, ">=5", "p+1", "PSL2(p)", "PGL2(p)", "never",
             lambda p: (p, p + 1, psl2(p), pgl2(p)), ((5,), (7,)),
             lambda p, m, x, y: m == p + 1 and x == "PSL2"
             and y in ("PSL2", "PGL2")),
    TableRow(1, 11, "11", "12", "M11", "M11", "never"),
    TableRow(1, 12, "11", "12", "M12", "M12", "never"),
    TableRow(1, 13, "23", "24", "M24", "M24", "never"),
    TableRow(1, 14, "Mersenne 2^a-1", "2^a+1", "PGL2(2^a)", "PGammaL2(2^a)",
             "cond_C"),
)

# the Y column is the largest admissible Y; the attained block action may
# be any group between X and that bound
TABLE2 = (
    TableRow(2, 1, "-", "m>=4", "Alt(m)", "Sym(m)", "not_applicable",
             lambda m: (None, m, alt_group(m), sym_group(m)), ((5,),),
             lambda p, m, x, y: x == "Alt" and y in ("Alt", "Sym")),
    TableRow(2, 2, "-", "5", "D(5)", "AGL1(5)", "not_applicable",
             lambda: (None, 5, dihedral_group(5), agl1(5)), ((),),
             lambda p, m, x, y: x == "Dihedral" and y in ("Dihedral", "AGL1")),
    TableRow(2, 3, "-", "6", "PSL2(5)", "PGL2(5)", "not_applicable",
             lambda: (None, 6, psl2(5), pgl2(5)), ((),),
             lambda p, m, x, y: x == "PSL2" and y in ("PSL2", "PGL2")),
    TableRow(2, 4, "-", "7", "PGL3(2)", "PGL3(2)", "not_applicable",
             lambda: (None, 7, pgl3_2(), pgl3_2()), ((),),
             lambda p, m, x, y: x == y == "PGL3_2"),
    TableRow(2, 5, "-", "8", "AGL3(2)", "AGL3(2)", "not_applicable",
             lambda: (None, 8, agl_d2(3), agl_d2(3)), ((),),
             lambda p, m, x, y: x == y == "AGLd2"),
)

TABLE4 = (
    TableRow(4, 1, "-", "m", "{1} x Sym(m)", "<tau> x Sym(m)",
             "not_applicable",
             matches=lambda p, m, x, y: y == "tau_cross_sym"),
    TableRow(4, 2, "-", "m", "E+ : Sym(m)", "Sym(2) wr Sym(m)",
             "not_applicable", matches=lambda p, m, x, y: y == "c2_wr_sym"),
)


def _match_row(table: tuple, p: Optional[int], m: int, x: Optional[str],
               y: Optional[str]) -> Optional[TableRow]:
    """The first row of the table whose rule holds, or None."""
    return next((row for row in table if row.matches(p, m, x, y)), None)


# ---------------------------------------------------------------------------
# reference subgroups of Sym(2) wr Sym(m), copy i the pair {2i, 2i+1},
# each built once per m and shared

def _flips(m: int, pairs) -> Permutation:
    """The base-group element swapping the two points of each given pair."""
    swap, one = Permutation([1, 0]), Permutation.identity(2)
    return base_group_element([swap if i in pairs else one for i in range(m)])


def superflip(m: int) -> Permutation:
    """The element swapping both points of every pair simultaneously."""
    return _flips(m, range(m))


def diagonal_sym(m: int) -> list[Permutation]:
    """Sym(m) permuting the pairs {2i, 2i+1} without flips."""
    return [top_group_element(2, g) for g in sym_group(m).generators]


@cache
def one_cross_sym(m: int) -> PermGroup:
    """{1} x Sym(m): the diagonal copy of Sym(m) on 2m points."""
    return PermGroup(2 * m, diagonal_sym(m))


@cache
def tau_cross_sym(m: int) -> PermGroup:
    """<tau> x Sym(m): diagonal Sym(m) plus the superflip."""
    return PermGroup(2 * m, diagonal_sym(m) + [superflip(m)])


@cache
def even_flips(m: int) -> PermGroup:
    """E+: flip vectors with evenly many flipped pairs."""
    return PermGroup(2 * m, [_flips(m, (0, i)) for i in range(1, m)])


@cache
def even_flips_rtimes_sym(m: int) -> PermGroup:
    """E+ : Sym(m): even flip vectors extended by the diagonal Sym(m)."""
    return PermGroup(2 * m, list(even_flips(m).generators) + diagonal_sym(m))


@cache
def c2_wr_sym(m: int) -> PermGroup:
    """Sym(2) wr Sym(m) on 2m points, pairs {2i, 2i+1}."""
    return PermGroup(2 * m, [_flips(m, (0,))] + diagonal_sym(m))


@cache
def pair_references(m: int) -> tuple:
    """(name, group, element set) of the five pair-table references, the
    last Sym(2) wr Sym(m) itself; built once per m and shared.  On 2m
    points ``_least_supports(2m)`` lists all but the identity."""
    return tuple((make.__name__, make(m), frozenset(
        make(m)._least_supports(2 * m)) | {Permutation.identity(2 * m)})
                 for make in (one_cross_sym, tau_cross_sym, even_flips,
                              even_flips_rtimes_sym, c2_wr_sym))


# ---------------------------------------------------------------------------
# family recognition

def _candidate_specs(degree: int) -> list[GroupSpec]:
    out = [GroupSpec("Sym", (degree,)), GroupSpec("Alt", (degree,)),
           GroupSpec("Cyclic", (degree,))]
    if degree >= 3:
        out.append(GroupSpec("Dihedral", (degree,)))
    if _is_prime(degree) and degree <= MAX_FIELD_PRIME:
        out.append(GroupSpec("AGL1", (degree,)))
    if _is_prime(degree - 1) and degree - 1 <= MAX_FIELD_PRIME:
        out.append(GroupSpec("PSL2", (degree - 1,)))
        out.append(GroupSpec("PGL2", (degree - 1,)))
    if degree == 7:
        out.append(GroupSpec("PGL3_2", ()))
    if degree in (2 ** d for d in range(1, MAX_AGL_DIMENSION + 1)):
        out.append(GroupSpec("AGLd2", (degree.bit_length() - 1,)))
    return out


def recognize_family(group: PermGroup) -> Optional[GroupSpec]:
    """Match a group against the constructible families of its degree, all
    transitive, by a permutation-isomorphism witness.  Only the candidates
    whose ``family_order`` is the group's order are built and searched, as
    the search rejects any other at once.  Returns None when nothing
    matches (the caller reports the group verbatim).
    """
    order = group.order()
    for spec in _candidate_specs(group.degree):
        if family_order(spec) == order and \
                permutation_isomorphic(group, construct(spec)) is not None:
            return spec
    return None


# ---------------------------------------------------------------------------
# row checking

@dataclass
class RowCheck:
    """Outcome of checking one table row on its sample instances."""

    row: TableRow
    status: str                      # pass | fail
    details: list = field(default_factory=list)


def _two_two_classes(y: PermGroup) -> list[list[Permutation]]:
    """Conjugacy classes of order-2 support-4 elements of y, each sorted,
    by least member; ``_least_supports`` lists each class's least one."""
    maps = [lambda h, g=g: h.conjugate(g) for g in y.generators]
    return orbits(filter(is_two_two, y._least_supports(4)), maps)


def check_table2_row(row: TableRow, params: tuple) -> RowCheck:
    """For every order-2 support-4 element x of Y, the closure of x under
    conjugation must be permutation isomorphic to X."""
    _, m, x_ref, y = row.x_spec(*params)
    details = []
    classes = _two_two_classes(y)
    if not classes:
        return RowCheck(row, "fail", ["no order-2 support-4 element found"])
    for cls in classes:
        closure = y.normal_closure(cls[0])
        # every class member generates the same normal closure
        members_ok = all(x in closure for x in cls)
        iso = permutation_isomorphic(closure, x_ref)
        details.append({
            "class_size": len(cls), "closure_order": closure.order(),
            "members_in_closure": members_ok, "isomorphic_to_X": iso is not None})
    ok = all(d["members_in_closure"] and d["isomorphic_to_X"]
             for d in details)
    return RowCheck(row, "pass" if ok else "fail", details)


def check_table1_row(row: TableRow, params: tuple) -> RowCheck:
    """Check the minimal-degree claim on the wreath examples X wr Sym(2)
    and Y wr Sym(2) built from the row's groups."""
    p, m, x_ref, y_ref = row.x_spec(*params)
    details = []
    for name, inner in (("X", x_ref), ("Y", y_ref)):
        g = wreath_product(inner, sym_group(2))
        rep = classify_p_cycle_group(g, p)
        direct = g.minimal_degree()
        agree = (direct == p) == rep.predicted_mindeg_is_p
        details.append({
            "group": name, "direct_mindeg": direct,
            "predicted_is_p": rep.predicted_mindeg_is_p, "agree": agree})
    ok = all(d["agree"] for d in details)
    return RowCheck(row, "pass" if ok else "fail", details)


def check_table_row(row: TableRow, params: tuple = ()) -> RowCheck:
    if row.table not in (1, 2):
        raise ValueError("row checks exist for tables 1 and 2 only; tables "
                         "3/4 are verified by subgroup enumeration")
    if row.x_spec is None:
        raise ValueError(f"table {row.table} row {row.index} ({row.x_desc}, "
                         f"{row.y_desc}) is metadata only: nothing to check")
    check = check_table1_row if row.table == 1 else check_table2_row
    return check(row, params)


# ---------------------------------------------------------------------------
# p-cycle classifier

@dataclass
class PCycleReport:
    """Classification of a transitive group containing a prime-length cycle."""

    p: int
    m: int
    k: int
    primitive: bool
    x_witness: Permutation
    x_group: Optional[PermGroup]       # X restricted to the block
    y_group: Optional[PermGroup]       # Y = block stabilizer action on block
    x_family: Optional[GroupSpec]
    y_family: Optional[GroupSpec]
    row: Optional[TableRow]
    cond_c: Optional[bool]
    predicted_mindeg_is_p: Optional[bool]
    notes: list = field(default_factory=list)


def _find_p_cycle(group: PermGroup, p: Optional[int]) -> Optional[Permutation]:
    """The least p-cycle by images, for p None of the least such prime:
    the first ``_least_supports`` meets, as p-cycles are conjugation-closed."""
    lengths = range(2, group.degree + 1) if p is None else (p,)
    return next((g for q in filter(_is_prime, lengths)
                 for g in group._least_supports(q) if g.cycle_type() == (q,)),
                None)


def _sandwich(group: PermGroup, block: tuple, x: Permutation):
    """The sandwich X <= Y on a block B holding supp(x), each built and
    recognised once: Y is the action of the block stabilizer G_B on B,
    and X the normal closure of x in G_B, restricted to B; returned as
    (X, Y, X's family, Y's family).

    X is closed in Y, in B's degree.  Restriction to B maps G_B onto Y;
    it is one-to-one on the closure, whose members all have their support
    in B; and a generator of G_B that fixes B pointwise conjugates such a
    member to itself.  So the closure in Y keeps the restrictions of the
    generators the closure in G_B keeps, in the same order.  X <= Y, as x
    fixes B and so lies in G_B with its conjugates: when Y's generators
    lie in X, Y = X and Y's family is X's, with no chain built for Y."""
    y_grp = group.block_stabilizer(block).restriction(block)
    x_grp = y_grp.normal_closure(
        Permutation([block.index(x(v)) for v in block]))
    x_fam = recognize_family(x_grp)
    y_fam = x_fam if all(g in x_grp for g in y_grp.generators) \
        else recognize_family(y_grp)
    return x_grp, y_grp, x_fam, y_fam


def classify_p_cycle_group(group: PermGroup,
                           p: Optional[int] = None) -> PCycleReport:
    """Locate a p-cycle, a block system holding its support, and the
    sandwich pair (X, Y); predict whether the minimal degree equals p.

    Condition (C) says that Fix_B, the pointwise stabilizer of the
    complement of the block B, restricted to B, is permutation isomorphic
    to X.  Each conjugate of x in G_B has its support in B, so it fixes
    the complement pointwise and X <= Fix_B.  Isomorphic groups have one
    order, so (C) holds exactly when Fix_B <= X: when Fix_B's generators
    lie in X, and Fix_B gets no chain."""
    if not group.is_transitive():
        raise ValueError("group must be transitive")
    x = _find_p_cycle(group, p)
    if x is None:
        raise ValueError("no cycle of prime length found")
    p = x.cycle_type()[0]
    block = tuple(sorted(group._block_closure(x.support())))
    m = len(block)
    if m == group.degree:
        # no proper block holds the support: treat the whole set as the block
        x_fam = y_fam = recognize_family(group)
        x_grp, y_grp, cond_c = None, group, None
        row = _match_row(TABLE1, p, m, x_fam and x_fam.family,
                         x_fam and x_fam.family)
        notes = ["support not contained in any proper block"]
    else:
        x_grp, y_grp, x_fam, y_fam = _sandwich(group, block, x)
        outside = [v for v in range(group.degree) if v not in block]
        fix_restricted = group.pointwise_stabilizer(outside).restriction(block)
        cond_c = all(g in x_grp for g in fix_restricted.generators)
        row = _match_row(TABLE1, p, m, x_fam and x_fam.family,
                         y_fam and y_fam.family)
        notes = []
        if row is None:
            notes.append("no table row matched; groups reported verbatim")
        elif row.condition == "p3_and_C" and p > 3:
            notes.append("table predicts mindeg != p without naming a value")
    return PCycleReport(
        p=p, m=m, k=group.degree // m,
        primitive=m == group.degree and group.is_primitive(), x_witness=x,
        x_group=x_grp, y_group=y_grp, x_family=x_fam, y_family=y_fam,
        row=row, cond_c=cond_c, notes=notes,
        predicted_mindeg_is_p=row and row.predicts_p(p, cond_c))


# ---------------------------------------------------------------------------
# 2^2-element classifier

@dataclass
class TwoTwoReport:
    """Classification of a transitive group containing a 2^2-element."""

    tag: str                         # case_prim | case_cross | small_mindeg
    m: Optional[int] = None
    k: Optional[int] = None
    x_group: Optional[PermGroup] = None
    y_group: Optional[PermGroup] = None
    x_family: Optional[GroupSpec] = None
    y_family: Optional[GroupSpec] = None
    row: Optional[TableRow] = None
    witness: Optional[Permutation] = None
    pair_blocks: Optional[tuple] = None     # the size-2 system, when relevant
    notes: list = field(default_factory=list)


def _size2_blocks(group: PermGroup, x: Permutation) -> list:
    """The size-2 blocks holding a1 for x = (a1,a2)(b1,b2), as (block,
    kind): "crosswise" for {a1, b1} and {a1, b2}, "flips" for {a1, a2}.

    These are the blocks of a1 in all the size-2 systems: x fixes every
    point off its support, so such a system pairs each support point with
    another, and x maps the block of a1 onto the block of the other two.
    If two of the three pairings are blocks, so is the third, and supp(x)
    is a block on which the group acts as the regular Klein four-group.
    """
    (a1, a2), (b1, b2) = x.cycles()
    closures = [(group._block_closure((a1, c)), kind) for c, kind in
                ((b1, "crosswise"), (b2, "crosswise"), (a2, "flips"))]
    return [(block, kind) for block, kind in closures if len(block) == 2]


def classify_22_group(group: PermGroup) -> TwoTwoReport:
    """Branch a transitive group with a 2^2-element x into the primitive-
    block case on the witness block, the smallest block holding supp(x);
    the paired-blocks case, where x pairs size-2 blocks crosswise or flips
    them; or a smaller-minimal-degree witness."""
    if not group.is_transitive():
        raise ValueError("group must be transitive")
    at_most_four = list(group._least_supports(4))  # conjugation-closed minima
    x = min(filter(is_two_two, at_most_four), default=None)
    if x is None:
        raise ValueError("no order-2 support-4 element found")
    # a transposition or 3-cycle witnesses minimal degree < 4
    small = min((g for g in at_most_four if len(g.support()) < 4), default=None)
    if small is not None:
        return TwoTwoReport(tag="small_mindeg", witness=small,
                            notes=[f"support size {len(small.support())}"])

    block = tuple(sorted(group._block_closure(x.support())))
    pairs = _size2_blocks(group, x)
    # when all three pairings of supp(x) are blocks, x counts as crosswise
    if len(pairs) < 3 and (len(block) < group.degree or group.is_primitive()):
        x_grp, y_grp, x_fam, y_fam = _sandwich(group, block, x)
        row = _match_row(TABLE2, None, len(block), x_fam and x_fam.family,
                         y_fam and y_fam.family)
        notes = ["(X,Y) = (Alt, Sym): minimal degree <= 3"] \
            if row is TABLE2[0] else []
        return TwoTwoReport(tag="case_prim", m=len(block),
                            k=group.degree // len(block), x_group=x_grp,
                            y_group=y_grp, x_family=x_fam, y_family=y_fam,
                            row=row, witness=x, notes=notes)
    if not pairs:
        return TwoTwoReport(tag="case_cross", witness=x, notes=[
            "unresolved configuration reported verbatim"])

    # the paired-blocks case, on the system of the first size-2 block
    pair_block, kind = pairs[0]
    pair_bs = group.block_system_from(pair_block)
    m = len(pair_bs.blocks)
    # f sends the point delta of block j to the wreath index 2*j + delta
    f = Permutation([v for blk in pair_bs.blocks for v in blk]).inverse()
    y_grp = PermGroup(2 * m, [g.conjugate(f) for g in group.generators])
    x_grp = y_grp.normal_closure(x.conjugate(f))
    refs = [(make.__name__, make(m)) for make in
            (one_cross_sym, tau_cross_sym, even_flips_rtimes_sym, c2_wr_sym)]

    def identify(grp):
        return next((name for name, ref in refs
                     if permutation_isomorphic(grp, ref) is not None), None)

    y_name, x_name = identify(y_grp), identify(x_grp)
    notes = [f"witness acts {kind} on the size-2 blocks"]
    if y_name:
        notes.append(f"Y matches {y_name}")
    if x_name:
        notes.append(f"X matches {x_name}")
    return TwoTwoReport(tag="case_cross", m=m, k=m, x_group=x_grp,
                        y_group=y_grp, witness=x,
                        row=_match_row(TABLE4, None, m, x_name, y_name),
                        pair_blocks=pair_bs.blocks, notes=notes)


# ---------------------------------------------------------------------------
# exhaustive subgroup enumeration for the small pair tables

@dataclass
class PairEnumeration:
    """Result of enumerating subgroup pairs of Sym(2) wr Sym(m)."""

    m: int
    total_subgroups: int
    pairs: list                      # (x_elems, y_elems) as element sets
    matches: list                    # per pair: names of matched references
    kernels: list                    # per pair: tag of Y meet the flip group
    row1_matched: bool               # ({1} x Sym(m), <tau> x Sym(m)) observed
    table3_row2_matched: bool        # flips-only X observed with the full Y
    table4_row2_matched: bool        # (E+ : Sym(m), full Y) observed


def _all_subgroups(elements: list[Permutation],
                   degree: int) -> list[tuple[frozenset, list[Permutation]]]:
    """All subgroups of a small group, sorted by order and then by their
    sorted image tuples, each as (element set, canonical sequence).

    Elements are indices into ``elements``, subgroups int bit masks.  K's
    canonical sequence takes, at each step, K's least element outside the
    group generated so far, so its indices rise and each is the least
    generator of its cyclic subgroup.  The walk extends H only by such g
    above H's last one and outside H, and drops <H, g> once it holds a new
    index below g (canonical augmentation; McKay, "Isomorph-free
    exhaustive generation", 1998): each subgroup is built once, from the
    parent its sequence names.  <H, g> grows H by whole right cosets on
    the Cayley table, at most 2,304 entries here (Dimino's algorithm;
    Butler, *Fundamental Algorithms for Permutation Groups*, 1991)."""
    index = {g.images: i for i, g in enumerate(elements)}
    images = [g.images for g in elements]
    # right[b][a] is the index of a*b (a first)
    right = list(zip(*[[index.get(p) for p in map(_then(a), images)]
                       for a in images]))
    e = index.get(tuple(range(degree)))
    if e is None or any(None in column for column in right):
        raise RuntimeError("subgroup closure leaves the element set")
    bits = [1 << i for i in range(len(elements))]
    least = {sum(map(bits.__getitem__, orbit(g, [right[g].__getitem__]))): g
             for g in reversed(range(len(elements)))}    # <g> -> least g
    built = {bits[e]: ([e], [])}    # mask -> (its indices, its sequence)

    def extend(mask, g):
        # the right cosets of H = built[mask] that generators of <H, g>
        # reach from H; a coset is new iff its representative is new
        (subgroup, gens), forbidden = built[mask], (bits[g] - 1) & ~mask
        reps, gens = [e], gens + [g]
        for rep in reps:
            for s in gens:
                t = right[s][rep]
                if not mask & bits[t]:
                    coset = map(right[t].__getitem__, subgroup)
                    mask |= sum(map(bits.__getitem__, coset))
                    if mask & forbidden:
                        return      # g is not <H, g>'s least new element
                    reps.append(t)
        built[mask] = [i for i in range(len(bits)) if mask & bits[i]], gens
        family.append(mask)

    family = [bits[e]]              # extend appends each new subgroup
    for mask in family:
        last = max(built[mask][1], default=-1)
        for g in least.values():
            if g > last and not mask & bits[g]:
                extend(mask, g)
    subgroups = [(frozenset(elements[i] for i in elems),
                  [elements[i] for i in gens])
                 for elems, gens in built.values()]
    return sorted(subgroups, key=lambda sub: (len(sub[0]), sorted(
        g.images for g in sub[0])))


def enumerate_small_subgroup_pairs(m: int) -> PairEnumeration:
    """Exhaustively enumerate subgroups Y of Sym(2) wr Sym(m) containing an
    order-2 support-4 element projecting to a transposition, with full
    projection Sym(m); pair each with X = closure of that element under Y.

    Y runs over ``_all_subgroups``, on its canonical sequence; each
    element's projection is the permutation of the pairs it induces,
    ``top_part(2, g)``.
    Every subgroup holding x's Y-class (its orbit under Y's generators,
    from ``orbits``) holds X = <x^Y>, so X is the first in the family.
    X and Y are named once per element set: after the first of the five
    ``pair_references`` with that set, else the first one of their order
    permutation isomorphic to them.  The data settles the row-2
    discrepancy between the tables.
    """
    if m not in (2, 3):
        raise ValueError("m must be 2 or 3")
    references = pair_references(m)
    elements = sorted(references[-1][2])     # Sym(2) wr Sym(m)
    subgroups = _all_subgroups(elements, 2 * m)

    @cache
    def identify(elems: frozenset) -> str:
        for name, _, ref_elems in references:
            if elems == ref_elems:
                return name
        group = PermGroup(2 * m, dict(subgroups)[elems])
        for name, ref, ref_elems in references:
            if len(ref_elems) == len(elems) and \
                    permutation_isomorphic(group, ref) is not None:
                return name + " (up to perm-iso)"
        return f"unrecognized (order {len(elems)})"

    pairs, matches, kernels = [], [], []
    proj = {g: top_part(2, g) for g in elements}
    # for m = 2 the later key 2 wins: a kernel of order 2 is the superflip
    kernel_tags = {2 ** m: "all_flips", 2 ** (m - 1): "even_flips",
                   2: "superflip", 1: "trivial"}
    for y_elems, kept in subgroups:
        projections = [proj[g] for g in y_elems]
        if len({pr.images for pr in projections}) != factorial(m):
            continue    # Y does not project onto Sym(m)
        k = sum(1 for pr in projections if pr.is_identity())   # |kernel|
        conjugate = [lambda h, g=g, gi=g.inverse(): gi * h * g for g in kept]
        classes = orbits([x for x in y_elems if is_two_two(x)
                          and proj[x].cycle_type() == (2,)], conjugate)
        xs = {next(i for i, s in enumerate(subgroups) if s[0].issuperset(cls))
              for cls in classes}   # family indices of the Xs
        for x_elems, _ in map(subgroups.__getitem__, sorted(xs)):
            pairs.append((x_elems, y_elems))
            matches.append((identify(x_elems), identify(y_elems)))
            kernels.append(kernel_tags.get(k, f"size_{k}"))

    r1 = ("one_cross_sym", "tau_cross_sym") in matches
    t3 = any(x == "even_flips" and y.startswith("c2_wr_sym")
             for x, y in matches)
    t4 = any(x == "even_flips_rtimes_sym" and y.startswith("c2_wr_sym")
             for x, y in matches)
    return PairEnumeration(
        m=m, total_subgroups=len(subgroups), pairs=pairs, matches=matches,
        kernels=kernels, row1_matched=r1, table3_row2_matched=t3,
        table4_row2_matched=t4)
