"""One benchmark run of moss, in a fresh interpreter started by run.py.

    python3 bench/child.py [--spans PATH WORKLOAD RUN] MODE ARG...

Modes:
    setup Q     import moss, build GF(Q), run find_alpha and derive_lambda
    certify Q   verify_family(build_family(GF(Q)), "fast"); prints the report as JSON
    cli ARG...  moss.cli.main(ARG...), exactly what the moss command runs

With --spans, every call into the functions listed in spans.FUNCTIONS is
recorded and the spans are written to PATH when the run ends.
moss is imported from PYTHONPATH, which run.py points at the checkout's src.
"""

import sys


def _setup(args):
    from moss import GF, derive_lambda, find_alpha

    field = GF(int(args[0]))
    alpha = find_alpha(field)
    print(f"alpha {alpha.index} lambda {derive_lambda(field, alpha).index}")
    return 0


def _certify(args):
    import json

    from moss import GF, build_family, verify_family

    report = verify_family(build_family(GF(int(args[0]))), "fast")
    print(json.dumps({"ok": report.ok, "size": report.size, "pairs": report.pairs}))
    return 0


def _cli(args):
    import moss.cli

    return moss.cli.main(args)


MODES = {"setup": _setup, "certify": _certify, "cli": _cli}


def main(argv):
    tracer = None
    if argv[:1] == ["--spans"]:
        import spans

        path, workload, run = argv[1:4]
        argv = argv[4:]
        tracer = spans.Tracer(workload, run)
        tracer.install()
    try:
        return MODES[argv[0]](argv[1:])
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.write(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
