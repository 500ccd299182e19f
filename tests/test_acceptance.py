"""Acceptance suite: the seven exit criteria, each timed against its limit.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.
"""

import json
import math
import time
from itertools import combinations
from pathlib import Path

from moss.cli import main
from moss.family import alpha_census, build_family, find_alpha, verify_family
from moss.planes import Plane
from moss.serialize import SquareDocument
from moss.sudoku import build_from_canonical, verify_orthogonal_bruteforce, verify_sudoku
from oracles import (
    GOLDEN_GRID_Q3,
    GOLDEN_PLANE_Q3,
    ODD_PRIME_POWERS_49,
    PolyElement,
    all_planes,
    all_valid_generators,
    build_from_plane,
    count_alphas,
    get_field,
    grid_from_cosets,
    is_sudoku_generator,
    meets_trivially,
    squares_by_squaring,
    symbol_at,
)


def _check(num, description, ok, elapsed, limit):
    status = "PASS" if (ok and elapsed <= limit) else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {description} ({elapsed:.2f}s, limit {limit:g}s)")
    assert ok, f"criterion {num} failed: {description}"
    assert elapsed <= limit, f"criterion {num} exceeded {limit}s: took {elapsed:.2f}s"


def test_criterion_1_golden_grid():
    start = time.perf_counter()
    f3 = get_field(3)
    grid = build_from_plane(Plane.from_indices(f3, *GOLDEN_PLANE_Q3))
    ok = grid.rows == GOLDEN_GRID_Q3
    ok = ok and symbol_at(grid, 0, 1, 2, 2) == 1
    _check(1, "golden grid reproduced cell-for-cell", ok, time.perf_counter() - start, 1)


def test_criterion_2_complete_families_bruteforce():
    start = time.perf_counter()
    ok = True
    for q in (3, 5, 7, 9):
        family = build_family(get_field(q))
        report = verify_family(family, "bruteforce")
        ok = ok and family.size == q * (q - 1) and report.ok
        ok = ok and report.pairs == family.size * (family.size - 1) // 2
    _check(2, "q(q-1) squares, all sudoku, all pairs orthogonal (q = 3,5,7,9)",
           ok, time.perf_counter() - start, 60)


def test_criterion_3_fast_criterion_scales():
    start = time.perf_counter()
    ok = True
    for q in (11, 13, 25, 27, 49):
        family = build_family(get_field(q))
        report = verify_family(family, "fast")
        ok = ok and family.size == q * (q - 1) and report.ok
    _check(3, "determinant criterion clean for q = 11,13,25,27,49",
           ok, time.perf_counter() - start, 60)


def test_criterion_4_oracle_equivalence_q3():
    start = time.perf_counter()
    f3 = get_field(3)
    planes = list(all_planes(f3))
    passing = 0
    agree = len(planes) == 130
    for plane in planes:
        predicted = is_sudoku_generator(plane)
        observed = verify_sudoku(grid_from_cosets(plane)).ok
        agree = agree and predicted == observed
        passing += predicted
    agree = agree and passing == 36

    generators = all_valid_generators(f3)
    grids = [build_from_canonical(c) for c in generators]
    pairs = 0
    for i, j in combinations(range(len(generators)), 2):
        pairs += 1
        fast = meets_trivially(generators[i], generators[j])
        agree = agree and fast == verify_orthogonal_bruteforce(grids[i], grids[j])
    agree = agree and pairs == 630
    _check(4, "generator and orthogonality predicates match brute force (130 planes, 630 pairs)",
           agree, time.perf_counter() - start, 10)


def test_criterion_5_residue_census():
    start = time.perf_counter()
    ok = True
    for q in ODD_PRIME_POWERS_49:
        field = get_field(q)
        alpha = find_alpha(field)
        count = count_alphas(field)
        squares = squares_by_squaring(field)
        successor = PolyElement.of(field, alpha.index) + PolyElement.of(field, 1)
        ok = ok and alpha.index in squares and successor.index not in squares
        ok = ok and math.floor((q - 1) / 4) - 2 <= count <= math.ceil((q - 1) / 4) + 2
        ok = ok and count == len(alpha_census(field))
    ok = ok and count_alphas(get_field(13)) == 3 == (13 - 1) // 4
    _check(5, "residue search succeeds and counts track (q-1)/4 up to q = 49",
           ok, time.perf_counter() - start, 5)


def test_criterion_6_no_seventh_square_q3():
    start = time.perf_counter()
    f3 = get_field(3)
    members = build_family(f3).matrices
    candidates = all_valid_generators(f3)
    extensions = [c for c in candidates
                  if all(meets_trivially(c, m) for m in members)]
    ok = len(candidates) == 36 and extensions == []
    _check(6, "no 7th orthogonal generator among all 36 candidates at q = 3",
           ok, time.perf_counter() - start, 1)


def _corrupted_documents(base_text):
    """Twelve corrupted variants of a clean document, each detectably broken."""
    base = json.loads(base_text)

    def changed(**kwargs):
        return json.dumps(dict(base, **kwargs))

    swapped = [row[:] for row in base["grid"]]
    swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]
    shifted = [[(s + 1) % (base["q"] ** 2) for s in row] for row in base["grid"]]
    missing = {k: v for k, v in base.items() if k != "modulus"}
    return [
        changed(grid=swapped),
        changed(grid=shifted),
        changed(grid=base["grid"][:-1]),
        changed(grid=[[81] + base["grid"][0][1:]] + base["grid"][1:]),
        changed(c=[[1, 0], [0, 1]]),
        changed(c=[[1, 2], [2, 1]]),
        changed(c=[[0, base["q"] + 1], [1, 1]]),
        changed(q=base["q"] + 1),
        changed(p=2, k=3, q=8, modulus=[1, 0, 1, 1]),
        changed(modulus=[2] + list(base["modulus"][1:])),
        json.dumps(missing),
        json.dumps(dict(base, note="tampered")),
    ]


def test_criterion_7_serialization_and_exit_codes(tmp_path, capsys):
    start = time.perf_counter()
    ok = True
    documents = []
    for q in (3, 5, 7):
        for matrix in build_family(get_field(q)).matrices:
            documents.append(SquareDocument.from_matrix(matrix))
    ok = ok and len(documents) == 6 + 20 + 42
    for doc in documents:
        text = doc.to_json()
        parsed = SquareDocument.from_json(text)
        ok = ok and parsed == doc and parsed.to_json() == text

    clean_dir = tmp_path / "clean"
    clean_dir.mkdir()
    clean_files = []
    for i, doc in enumerate(documents[:6]):
        path = clean_dir / f"clean_{i}.json"
        path.write_text(doc.to_json())
        clean_files.append(str(path))
    ok = ok and main(["verify", "--files", *clean_files]) == 0

    detected = 0
    for i, corrupt in enumerate(_corrupted_documents(documents[0].to_json())):
        path = tmp_path / f"corrupt_{i}.json"
        path.write_text(corrupt)
        if main(["verify", "--files", str(path)]) == 1:
            detected += 1
    capsys.readouterr()
    ok = ok and detected >= 10
    with capsys.disabled():
        _check(7, f"round trips exact for 68 documents; {detected} corrupted documents detected",
               ok, time.perf_counter() - start, 60)
