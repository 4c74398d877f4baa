"""Independent checks of orthocount's outputs.

Nothing here imports orthocount.  Field arithmetic, the vertex order, the
per-trial seeds, the sampled subsets, the tuple counts, the predictions and
the square identity are re-derived from the formats and recipes that the
project's README documents, so a fault in the program cannot hide behind a
helper it shares with its checker.

Every check function returns a list of failures, each a string that starts
with the name of the check that failed; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

CSV_COLUMNS = (
    "q", "d", "k", "m", "trial", "observed", "predicted_main", "predicted_alon",
    "relative_error", "validity_margin", "threshold_new", "threshold_old", "seed_used",
)
INT_COLUMNS = frozenset({"q", "d", "k", "m", "trial", "observed", "seed_used"})
VERIFY_KEYS = frozenset({
    "pass", "family", "q", "d", "field", "n", "degree", "mu_or_rho", "second_squared",
    "violations",
})
REL_TOL = Fraction(1, 10**12)
ROW_CHUNK = 512
MASK64 = (1 << 64) - 1


# -- finite fields -----------------------------------------------------------

def prime_power(q: int) -> tuple[int, int]:
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _digits(a: int, p: int, length: int) -> list[int]:
    return [(a // p**i) % p for i in range(length)]


def _poly_product(f: tuple[int, ...], g: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def minimal_modulus(p: int, e: int) -> tuple[int, ...]:
    """The monic irreducible of degree e whose lower coefficients, read as
    a base-p number with the constant term least significant, are least.
    Found by sieving: every reducible monic of degree e is a product of two
    monics of lower degree."""
    if e == 1:
        return (0, 1)

    def monics(deg: int) -> list[tuple[int, ...]]:
        return [tuple(_digits(code, p, deg)) + (1,) for code in range(p**deg)]

    reducible = {
        _poly_product(f, g, p)
        for a in range(1, e // 2 + 1)
        for f in monics(a)
        for g in monics(e - a)
    }
    return next(f for f in monics(e) if f not in reducible)


class Field:
    """GF(q) on element indices (base-p digits, constant term least
    significant), with full addition and multiplication tables."""

    def __init__(self, q: int):
        p, e = prime_power(q)
        self.p, self.e, self.q = p, e, q
        self.modulus = minimal_modulus(p, e)
        digits = [_digits(a, p, e) for a in range(q)]
        weights = [p**i for i in range(e)]

        def index(vec: list[int]) -> int:
            return sum(c * w for c, w in zip(vec, weights))

        def times_t(vec: list[int]) -> list[int]:
            # t^e = -(m_0 + m_1 t + ... + m_{e-1} t^{e-1})
            top = vec[-1]
            shifted = [0] + vec[:-1]
            return [(s - top * m) % p for s, m in zip(shifted, self.modulus)]

        def product(a: int, b: int) -> int:
            if e == 1:
                return a * b % p
            acc = [0] * e
            power = digits[a]
            for coeff in digits[b]:
                acc = [(x + coeff * y) % p for x, y in zip(acc, power)]
                power = times_t(power)
            return index(acc)

        self.add = np.array(
            [[index([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
             for a in range(q)],
            dtype=np.int64,
        )
        self.mul = np.array([[product(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)

    def spec(self) -> str:
        return f"GF({self.p}^{self.e}; modulus={','.join(map(str, self.modulus))})"

    def orthogonal(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Boolean matrix of x[i] . y[j] == 0 over the field."""
        if self.e == 1:
            return (x @ y.T) % self.p == 0
        acc = np.zeros((len(x), len(y)), dtype=np.int64)
        for i in range(x.shape[1]):
            acc = self.add[acc, self.mul[x[:, i][:, None], y[:, i][None, :]]]
        return acc == 0


# -- vertices ----------------------------------------------------------------

def representatives(field: Field, d: int) -> np.ndarray:
    """Projective representatives (first nonzero coordinate equal to 1) in
    the order of their base-q code, coordinate 1 least significant."""
    q = field.q
    codes = np.arange(1, q**d, dtype=np.int64)
    coords = (codes[:, None] // q ** np.arange(d, dtype=np.int64)) % q
    first = coords[np.arange(len(coords)), np.argmax(coords != 0, axis=1)]
    return coords[first == 1]


def vertices(field: Field, family: str, d: int, indices: np.ndarray | None = None) -> np.ndarray:
    """Coordinates of the given vertex indices (all when None).  Affine
    vertex i is scalar i % (q-1) + 1 times representative i // (q-1)."""
    reps = representatives(field, d)
    if family == "projective":
        return reps if indices is None else reps[indices]
    if indices is None:
        indices = np.arange(len(reps) * (field.q - 1))
    indices = np.asarray(indices, dtype=np.int64)
    scalars = indices % (field.q - 1) + 1
    return field.mul[scalars[:, None], reps[indices // (field.q - 1)]]


def graph_constants(family: str, q: int, d: int) -> dict[str, int]:
    """n, degree, codegree and squared second eigenvalue in closed form."""
    if family == "projective":
        return {
            "n": (q**d - 1) // (q - 1),
            "degree": (q ** (d - 1) - 1) // (q - 1),
            "mu_or_rho": (q ** (d - 2) - 1) // (q - 1),
            "second_squared": q ** (d - 2),
        }
    return {
        "n": q**d - 1,
        "degree": q ** (d - 1) - 1,
        "mu_or_rho": q ** (d - 2) - 1,
        "second_squared": (q - 1) ** 2 * q ** (d - 2),
    }


# -- seeds, subsets, counts --------------------------------------------------

def splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_seed(master: int, density_index: int, trial_index: int) -> int:
    inner = splitmix64(((density_index << 32) ^ trial_index) & MASK64)
    return splitmix64((master ^ inner) & MASK64)


def sampled_indices(seed: int, n: int, m: int) -> list[int]:
    """The first m entries of a partial Fisher-Yates shuffle of [0, n)
    driven by PCG64: step i swaps positions i and integers(i, n).  Only
    the touched positions are stored."""
    rng = np.random.Generator(np.random.PCG64(seed))
    moved: dict[int, int] = {}
    out = []
    for i in range(m):
        j = int(rng.integers(i, n))
        at_i, at_j = moved.get(i, i), moved.get(j, j)
        moved[i], moved[j] = at_j, at_i
        out.append(at_j)
    return out


def ordered_tuples(field: Field, coords: np.ndarray, k: int) -> int:
    """Ordered k-tuples of distinct, pairwise orthogonal rows of coords,
    from the orthogonality matrix B: sum(B) - trace(B) for k = 2, and
    sum((B @ B) * B) with a zero diagonal for k = 3.  Every partial sum is
    an integer below 2^53, so the float arithmetic is exact."""
    m = len(coords)
    if k == 2:
        total = 0
        for start in range(0, m, ROW_CHUNK):
            block = field.orthogonal(coords[start:start + ROW_CHUNK], coords)
            total += int(block.sum()) - int(np.trace(block, offset=start))
        return total
    if k != 3:
        raise ValueError(f"no independent count for k = {k}")
    if m**3 >= 2**53:
        raise ValueError(f"m = {m} is too large for an exact float count")
    b = np.empty((m, m), dtype=np.float64)
    for start in range(0, m, ROW_CHUNK):
        b[start:start + ROW_CHUNK] = field.orthogonal(coords[start:start + ROW_CHUNK], coords)
    np.fill_diagonal(b, 0.0)
    total = 0.0
    for start in range(0, m, ROW_CHUNK):
        rows = b[start:start + ROW_CHUNK]
        total += float(((rows @ b) * rows).sum())
    return int(total)


# -- experiment reports ------------------------------------------------------

def _close(value: float, exact: Fraction) -> bool:
    return abs(Fraction(value) - exact) <= REL_TOL * abs(exact) + Fraction(1, 10**15)


def _power_close(value: float, q: int, exponent: Fraction) -> bool:
    """value == q ** exponent up to rounding, compared in exact rationals
    as value ** den == q ** num."""
    num, den = exponent.numerator, exponent.denominator
    exact = Fraction(q) ** num
    return abs(Fraction(value) ** den - exact) <= den * REL_TOL * exact


def _resolve_size(density: str, n: int) -> int:
    return int(density) if "." not in density else math.floor(Fraction(density) * n)


def _parse_rows(csv_text: str) -> tuple[list[dict] | None, str | None]:
    reader = csv.reader(io.StringIO(csv_text))
    lines = list(reader)
    if not lines or tuple(lines[0]) != CSV_COLUMNS:
        return None, f"csv: header is {lines[0] if lines else None}"
    rows = []
    for line in lines[1:]:
        if len(line) != len(CSV_COLUMNS):
            return None, f"csv: row has {len(line)} fields"
        rows.append({
            col: int(val) if col in INT_COLUMNS else float(val)
            for col, val in zip(CSV_COLUMNS, line)
        })
    return rows, None


def check_experiment(config: dict, csv_text: str, json_text: str | None) -> list[str]:
    """Check every row of one `experiment` report against an independent
    recomputation: seeds, subset sizes, exact counts and predictions."""
    q, d, k, trials = config["q"], config["d"], config["k"], config["trials"]
    densities = config["densities"]
    try:
        rows, problem = _parse_rows(csv_text)
    except ValueError as exc:
        return [f"csv: {exc}"]
    if problem:
        return [problem]
    failures = []
    if len(rows) != len(densities) * trials:
        return [f"rows: {len(rows)} rows, expected {len(densities) * trials}"]
    if json_text is not None:
        try:
            records = json.loads(json_text)
        except ValueError as exc:
            records = exc
        if records != rows:
            failures.append("json: the JSON report differs from the CSV report")

    field = Field(q)
    n, degree = q**d - 1, q ** (d - 1) - 1
    pairs = k * (k - 1) // 2
    exponent_new = Fraction(d, 2) + (k - 1)
    exponent_old = Fraction(d * (k - 1), k) + Fraction(k - 1, 2) + Fraction(1, k)
    for index, row in enumerate(rows):
        density_index, trial = divmod(index, trials)
        m = _resolve_size(densities[density_index], n)
        seed = trial_seed(config["seed"], density_index, trial)
        where = f"row {index}"
        for col, want in (("q", q), ("d", d), ("k", k), ("trial", trial), ("m", m),
                          ("seed_used", seed)):
            if row[col] != want:
                failures.append(f"{col}: {where} has {row[col]}, expected {want}")
        coords = vertices(field, "affine", d, np.array(sampled_indices(seed, n, m)))
        observed = ordered_tuples(field, coords, k)
        if row["observed"] != observed:
            failures.append(f"observed: {where} has {row['observed']}, recount gives {observed}")
        main = Fraction(m**k, q**pairs)
        alon = Fraction(m**k * degree**pairs, n**pairs)
        for col, exact in (("predicted_main", main), ("predicted_alon", alon),
                           ("relative_error", abs(observed - main) / main)):
            if not _close(row[col], exact):
                failures.append(f"{col}: {where} has {row[col]!r}, expected {float(exact)!r}")
        for col, exponent in (("threshold_new", exponent_new), ("threshold_old", exponent_old)):
            if not _power_close(row[col], q, exponent):
                failures.append(f"{col}: {where} has {row[col]!r}, expected q^{exponent}")
        # margin = m / ((q-1) q^((d-2)/2) (n/degree)^(k-1)), compared squared
        squared = (Fraction(row["validity_margin"]) ** 2 * (q - 1) ** 2 * q ** (d - 2)
                   * Fraction(n, degree) ** (2 * (k - 1)))
        if abs(squared - m**2) > 4 * REL_TOL * m**2:
            failures.append(f"validity_margin: {where} has {row['validity_margin']!r}")
    return failures


# -- graph exports and the square identity -----------------------------------

def hex_rows(adjacency: np.ndarray) -> list[str]:
    """Rows of a 0/1 matrix in the export format: bit j of row i is entry
    (i, j), written as lowercase hex zero-padded to ceil(n/4) digits."""
    width = (adjacency.shape[1] + 3) // 4
    packed = np.packbits(adjacency.astype(bool), axis=1, bitorder="little")
    return [format(int.from_bytes(row.tobytes(), "little"), f"0{width}x") for row in packed]


def parse_hex_rows(rows: list[str], n: int) -> np.ndarray:
    nbytes = (n + 7) // 8
    packed = np.frombuffer(
        b"".join(int(row, 16).to_bytes(nbytes, "little") for row in rows), dtype=np.uint8
    ).reshape(len(rows), nbytes)
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :n]


def check_spectrum(family: str, q: int, d: int, export_text: str, verify_text: str) -> list[str]:
    """Check a `build --out` export and the `verify-spectrum` report of the
    same graph: closed forms, rows rebuilt from independent dot products,
    and A @ A.T of the exported matrix against the identity."""
    field = Field(q)
    want = graph_constants(family, q, d)
    n, degree, codegree = want["n"], want["degree"], want["mu_or_rho"]
    failures = []
    try:
        report = json.loads(verify_text)
    except ValueError as exc:
        return [f"verify-json: {exc}"]
    if not isinstance(report, dict) or set(report) != VERIFY_KEYS:
        return [f"verify-json: keys are {sorted(report) if isinstance(report, dict) else report}"]
    if report["pass"] is not True or report["violations"] != []:
        failures.append(f"pass: pass={report['pass']!r}, violations={report['violations']!r}")
    for key, value in {"family": family, "q": q, "d": d, **want}.items():
        if report[key] != value:
            failures.append(f"closed-form: {key} is {report[key]!r}, expected {value!r}")
    if report["field"] != field.spec():
        failures.append(f"field: {report['field']!r}, expected {field.spec()!r}")

    lines = export_text.split("\n")
    if lines[0].split() != [family, str(q), str(d), str(n), str(degree)] or lines[-1] != "":
        failures.append(f"export-header: {lines[0]!r}")
    exported = lines[1:-1]
    expected_rows = hex_rows(field.orthogonal(*[vertices(field, family, d)] * 2))
    if exported != expected_rows:
        bad = [i for i, (a, b) in enumerate(zip(exported, expected_rows)) if a != b]
        failures.append(
            f"export-rows: {len(exported)} rows, expected {n}; first row that differs from "
            f"the rebuilt rows: {bad[0] if bad else min(len(exported), n)}"
        )
    try:
        adjacency = parse_hex_rows(exported, n).astype(np.float64)
    except (ValueError, OverflowError) as exc:
        return failures + [f"square-identity: export does not parse: {exc}"]
    if adjacency.shape != (n, n):
        return failures + [f"square-identity: matrix shape {adjacency.shape}"]
    square = adjacency @ adjacency.T
    if family == "projective":
        expected = np.full((n, n), float(codegree))
        np.fill_diagonal(expected, float(degree))
    else:
        block = np.arange(n) // (q - 1)
        expected = codegree + (degree - codegree) * (block[:, None] == block[None, :])
    wrong = np.argwhere(square != expected)
    if len(wrong):
        i, j = wrong[0]
        failures.append(
            f"square-identity: {len(wrong)} entries differ, first ({i}, {j}) is "
            f"{square[i, j]:.0f}, expected {expected[i, j]:.0f}"
        )
    return failures
