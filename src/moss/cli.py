"""Command line front end.

Subcommands: field (parameters and element table), alpha (residue search
and census), family (emit and verify a complete family), generate (one
square from a generator matrix), verify (check documents), render (text
grid).  Every grid is printed by render_grid or SquareDocument.to_json
from its generator matrix, never from an int grid.  Exit codes: 0 success,
1 verification failure, 2 usage, parse, I/O or out-of-memory error.  Every
moss error is a ValueError, and main alone maps a ValueError, OSError or
MemoryError to exit 2; a schema violation is re-raised as a SchemaViolation
that names its file, which verify reports as a FAIL line instead.

verify certifies each document's grid with the one grid certifier,
sudoku.coset_kernel, fails a grid that it gives no row map, keeps the row
map, not the cells, and finds the pairs that are not orthogonal as
verify_family's bruteforce mode does (sudoku.non_orthogonal_pairs).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .family import alpha_census, build_family, derive_lambda, find_alpha, verify_family
from .gf import GF
from .planes import parse_mat2
from .serialize import SchemaViolation, SquareDocument
from .sudoku import coset_kernel, non_orthogonal_pairs, render_grid
# Not called here: bench/tests/test_bench.py checks that the tracer rebinds this name.
from .sudoku import verify_orthogonal_bruteforce  # noqa: F401


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path through a temp file in the same directory.

    The temp file, .<name>.<random hex>.tmp, is moved onto path with
    os.replace, so path holds either its old bytes or all of text, never a
    part.  If the write or the replace fails, the temp file is removed,
    and an OSError names path, as a direct write to it would.
    """
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        try:
            with open(tmp, "x") as out:
                out.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _cmd_field(args) -> int:
    field = GF(args.q)
    print(f"q: {field.q}")
    print(f"p: {field.p}")
    print(f"k: {field.k}")
    print("modulus: " + ",".join(str(c) for c in field.modulus))
    print("index\tcoeffs")
    for i, coeffs in enumerate(field._coeffs):
        print(f"{i}\t" + ",".join(str(c) for c in coeffs))
    return 0


def _cmd_alpha(args) -> int:
    field = GF(args.q)
    alpha = find_alpha(field)
    print(f"alpha: {alpha.index}")
    print(f"lambda: {derive_lambda(field, alpha).index}")
    if args.all:
        census = alpha_census(field)
        print("census: " + ",".join(str(a.index) for a in census))
        print(f"count: {len(census)} (about (q-1)/4 = {(field.q - 1) / 4:g})")
    return 0


def _cmd_generate(args) -> int:
    text = SquareDocument.from_matrix(parse_mat2(GF(args.q), args.c)).to_json()
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _load_document(path: Path) -> SquareDocument:
    """Read and validate one document.

    Raises OSError for an unreadable file, ValueError for text that is not
    JSON, and re-raises a schema violation as a SchemaViolation whose path
    is the file's; the last two name the file.
    """
    try:
        return SquareDocument.from_json(path.read_text(encoding="utf-8"))
    except SchemaViolation as exc:
        raise SchemaViolation(str(path), str(exc)) from None
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _cmd_render(args) -> int:
    print(render_grid(_load_document(Path(args.file)).matrix, "text"))
    return 0


def _cmd_verify(args) -> int:
    # A square keeps its path and its grid's row map (q^2 ints), not its
    # document or the grid's q^4 cells.
    squares: list[tuple[Path, tuple[int, ...]]] = []
    q = None  # the order of the squares kept so far
    failures = 0
    for name in args.files:
        path = Path(name)
        try:
            doc = _load_document(path)
        except SchemaViolation as exc:
            print(f"FAIL {exc}")
            failures += 1
            continue
        if q is not None and doc.q != q:
            raise ValueError(f"files mix different orders: {q}, {doc.q}")
        kernel = coset_kernel(doc.to_grid())
        if kernel is None:
            print(f"FAIL {path}: no coset kernel")
            failures += 1
            continue
        print(f"OK {path}")
        q = doc.q
        squares.append((path, kernel))
    for i, j in non_orthogonal_pairs([kernel for _, kernel in squares]):
        print(f"FAIL {squares[i][0]} vs {squares[j][0]}: not orthogonal")
        failures += 1
    pairs = len(squares) * (len(squares) - 1) // 2
    print(f"{len(squares)} squares ok, {pairs} pairs checked, {failures} failures")
    return 1 if failures else 0


def _cmd_family(args) -> int:
    field = GF(args.q)
    fam = build_family(field)
    report = verify_family(fam, args.verify) if args.verify else None
    ext = {"grid": "txt", "csv": "csv", "json": "json"}[args.format]

    def render(m):
        if args.format == "json":
            return SquareDocument.from_matrix(m).to_json()
        return render_grid(m, "text" if args.format == "grid" else "csv") + "\n"

    # One square at a time, so memory does not grow with the family.
    if args.out:
        outdir = args.out
        outdir.mkdir(parents=True, exist_ok=True)
        width = max(2, len(str(fam.size - 1)))
        for i, m in enumerate(fam):
            _write_atomic(outdir / f"square_{i:0{width}d}.{ext}", render(m))
        print(f"wrote {fam.size} squares to {outdir}")
    else:
        for i, m in enumerate(fam):
            if i and args.format != "json":
                print()
            sys.stdout.write(render(m))
    if report is not None:
        if not report.ok:
            for kind, members in report.violations:
                print(f"violation: {kind} {','.join(str(m) for m in members)}")
            return 1
        print(f"{report.size} squares, {report.pairs} orthogonal pairs")
    return 0


def _out_path(text: str) -> Path:
    """--out's type: a Path; the empty string, as from an unset variable, is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("must name a path")
    return Path(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moss",
        description="Construct and verify complete families of mutually "
                    "orthogonal sudoku squares of order q^2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="print field parameters and the element table")
    p.add_argument("--q", type=int, required=True, help="field order, an odd prime power")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("alpha", help="print the residue parameters alpha and lambda")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--all", action="store_true", help="also print the full census")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("family", help="emit the complete family of q(q-1) squares")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=("grid", "json", "csv"), default="json")
    p.add_argument("--out", type=_out_path, help="directory to write one file per square")
    p.add_argument("--verify", choices=("fast", "bruteforce"),
                   help="verify the family and print a report")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("generate", help="emit one square document from a generator matrix")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--c", required=True, metavar="a,b;c,d",
                   help="row-major generator matrix of element indices")
    p.add_argument("--out", type=_out_path, help="file to write instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="verify square documents and their orthogonality")
    p.add_argument("--files", nargs="+", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="print a document's grid as text")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
