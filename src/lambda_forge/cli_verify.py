"""The runner of ``verify``, which ``cli.main`` imports after parsing a
``verify`` argv: it checks the flags, then imports the suites it runs."""

from __future__ import annotations

from .errors import UsageError


def _run_verify(args):
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    custom = args.primes is not None or args.depth is not None
    if (args.corrupt or custom) and args.suite != "joyal-rezk":
        raise UsageError("--corrupt, --primes and --depth apply to joyal-rezk only")
    if args.group is not None and args.suite != "fracture":
        raise UsageError("--group applies to fracture only")
    if args.corrupt and custom:
        raise UsageError("--corrupt runs a fixed family and takes no --primes or --depth")
    if args.group is not None:
        from .abelian import fracture_check, parse_group

        reports = [fracture_check(parse_group(args.group))]
    else:
        from .verify import corrupted_joyal_rezk, joyal_rezk_suite, run_suite

        if args.corrupt:
            reports = [corrupted_joyal_rezk()]
        elif custom:
            from .textparse import parse_primes

            primes = parse_primes(args.primes) if args.primes is not None else (2, 3, 5)
            reports = [joyal_rezk_suite(args.seed, primes, 2 if args.depth is None else args.depth)]
        else:
            reports = run_suite(args.suite, args.seed)
    status = all(r.get("status") == "pass" for r in reports)
    return {"seed": args.seed, "reports": reports, "status": "pass" if status else "fail"}, status
