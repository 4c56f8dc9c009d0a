"""``python -m repro.serve``: drive a service from the command line.

Two subcommands:

* ``demo`` -- stand up a daemon, hammer it with N concurrent client
  threads across M tenants, drain, and print the service stats as
  JSON.  This is the CI smoke test (``--require-hits`` /
  ``--require-clean`` turn invariants into exit codes) and the
  quickest way to watch fair scheduling and the artifact cache work.
* ``programs`` -- list the registered task-library programs clients
  can submit by name.

Example::

    python -m repro.serve demo --clients 4 --tenants 2 \
        --backend process --report-dir reports/serve

Exit codes: 0 ok; 1 an asserted invariant failed (``--require-*``);
2 bad usage.
"""

import argparse
import json
import sys
import threading

from ..engine.config import laptop_config
from .client import PROGRAMS, ServiceClient, encode_program, program
from .queue import AdmissionRejected
from .service import JobService

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the multi-tenant job service demo.",
    )
    sub = parser.add_subparsers(dest="command")

    demo = sub.add_parser(
        "demo", help="run a daemon under concurrent client load"
    )
    demo.add_argument("--tenants", type=int, default=2,
                      help="number of tenants (default 2)")
    demo.add_argument("--clients", type=int, default=4,
                      help="concurrent client threads (default 4)")
    demo.add_argument("--jobs-per-client", type=int, default=3,
                      help="submissions per client (default 3)")
    demo.add_argument("--program", default="pagerank",
                      choices=sorted(PROGRAMS),
                      help="task-library program to submit")
    demo.add_argument("--backend", default="serial",
                      choices=["serial", "process"],
                      help="task runtime backend")
    demo.add_argument("--num-slots", type=int, default=2,
                      help="service worker slots (default 2)")
    demo.add_argument("--cache-mb", type=float, default=256.0,
                      help="artifact cache budget in MiB")
    demo.add_argument("--cold", action="store_true",
                      help="disable the artifact cache (budget 0)")
    demo.add_argument("--seed", type=int, default=0,
                      help="fair-scheduler tie-break seed")
    demo.add_argument("--report-dir", default=None,
                      help="write per-tenant JSONL logs + RunReports")
    demo.add_argument("--serialized", action="store_true",
                      help="round-trip programs through the wire serde")
    demo.add_argument("--require-hits", action="store_true",
                      help="exit 1 unless the artifact cache hit")
    demo.add_argument("--require-clean", action="store_true",
                      help="exit 1 on any failed job or missed drain")

    sub.add_parser("programs", help="list registered programs")
    return parser


def _run_demo(args):
    if args.tenants < 1 or args.clients < 1:
        print("need at least one tenant and one client",
              file=sys.stderr)
        return EXIT_USAGE
    config = laptop_config(backend=args.backend)
    service = JobService(
        config=config,
        num_slots=args.num_slots,
        cache_limit_bytes=(
            0 if args.cold else int(args.cache_mb * 1024 * 1024)
        ),
        seed=args.seed,
        report_dir=args.report_dir,
    )
    # First tenant gets double weight so the demo's schedule shows the
    # weighted (not just round-robin) policy.
    tenants = []
    for i in range(args.tenants):
        name = "tenant-%d" % i
        service.add_tenant(name, weight=2.0 if i == 0 else 1.0)
        tenants.append(name)
    service.start()

    rejected = []
    payload = (
        encode_program(program(args.program)) if args.serialized
        else None
    )

    def client_main(index, handles):
        client = ServiceClient(service, tenants[index % len(tenants)])
        for j in range(args.jobs_per_client):
            label = "c%d-j%d" % (index, j)
            try:
                if payload is not None:
                    handles.append(
                        client.submit_serialized(payload, label=label)
                    )
                else:
                    handles.append(
                        client.submit(args.program, label=label)
                    )
            except AdmissionRejected as exc:
                rejected.append((label, exc.reason))

    all_handles = [[] for _ in range(args.clients)]
    threads = [
        threading.Thread(
            target=client_main, args=(i, all_handles[i]),
            name="client-%d" % i,
        )
        for i in range(args.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    drained = service.drain(timeout=300)
    failures = []
    for handles in all_handles:
        for handle in handles:
            try:
                handle.result(timeout=0)
            except Exception as exc:  # noqa: BLE001 -- reported below
                failures.append((handle.label, repr(exc)))
    stats = service.stats()
    stats["schedule"] = [
        "%s/%s" % pair for pair in service.schedule()
    ]
    stats["client_rejections"] = [
        "%s:%s" % pair for pair in rejected
    ]
    stats["failures"] = ["%s:%s" % pair for pair in failures]
    stats["drained"] = drained
    service.shutdown()
    print(json.dumps(stats, indent=2, sort_keys=True))

    if args.require_clean and (failures or not drained):
        print("FAIL: %d failed jobs, drained=%s"
              % (len(failures), drained), file=sys.stderr)
        return EXIT_FAILED
    if args.require_hits and stats["cache"]["hits"] == 0:
        print("FAIL: artifact cache never hit", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _run_programs():
    for name in sorted(PROGRAMS):
        doc = (PROGRAMS[name].__doc__ or "").strip().splitlines()
        print("%-12s %s" % (name, doc[0] if doc else ""))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "programs":
        return _run_programs()
    parser.print_help()
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
