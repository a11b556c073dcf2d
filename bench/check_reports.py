#!/usr/bin/env python3
"""Checks the fleet reports the CI campaigns write, one subcommand per lane.

Each subcommand reads the report files a campaign left in the current
directory, fails (non-zero exit, assertion message) when a record or stanza
breaks the lane's contract, and distills the tracked metrics into a
BENCH_*.json file where the lane has one:

  ipet         fleet-report-ipet.json -> BENCH_ipet.json
  monitor      fleet-report-monitor.json, or with --mode=cfg
               fleet-report-monitor-cfg.json (no output file)
  diff         fleet-report-{cold,warm}-{ppc,rv32}.json -> BENCH_throughput.json
  ssa          fleet-report-ssa.json, fleet-report-nossa.json -> BENCH_ssa.json
  crosstarget  BENCH_crosstarget.json (no output file)

Run the campaigns first (see the CI workflow for the exact bench command
lines), then e.g. `python3 bench/check_reports.py diff --preset default`.
"""
import argparse
import json
import sys

FLEET_SCHEMA = "vcflight-fleet-report-v7"


def load(path):
    with open(path) as f:
        return json.load(f)


def emit(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
    print(json.dumps(doc, indent=2))


def check_ipet(args):
    """Distills the both-engine campaign into IPET tightness metrics."""
    doc = load("fleet-report-ipet.json")
    recs = [r for r in doc["records"] if r["ok"]]
    ipet = [r for r in recs if r["wcet_ipet_cycles"] > 0]
    tighter = [r for r in ipet if r["wcet_ipet_cycles"] < r["wcet_cycles"]]
    gain = sum((r["wcet_cycles"] - r["wcet_ipet_cycles"]) / r["wcet_cycles"]
               for r in ipet)
    emit({
        "schema": doc["schema"],
        "wcet_engine": doc["wcet"]["engine"],
        "records": len(recs),
        "ipet_records": len(ipet),
        "ipet_certified": sum(r["wcet_ipet_certified"] for r in ipet),
        "ipet_tighter_records": len(tighter),
        "ipet_mean_tightening_pct":
            round(100.0 * gain / len(ipet), 4) if ipet else 0.0,
    }, "BENCH_ipet.json")


MONITOR_REPORTS = {"full": "fleet-report-monitor.json",
                   "cfg": "fleet-report-monitor-cfg.json"}


def check_monitor(args):
    """The monitored campaign ran armed and refuted no static claim."""
    doc = load(MONITOR_REPORTS[args.mode])
    assert doc["schema"] == FLEET_SCHEMA, doc["schema"]
    mon = doc["monitor"]
    assert mon["mode"] == args.mode, mon
    assert mon["violations"] == 0, mon
    assert mon["records"] > 0 and mon["steps"] > 0, mon
    bad = [r["name"] for r in doc["records"]
           if r["monitor_violations"] or not r["ok"]]
    assert not bad, bad
    # No step escapes the oracle: every executed instruction was checked.
    unchecked = [r["name"] for r in doc["records"] if r["ok"]
                 and r["monitored_steps"] != r["exec"]["instructions"]]
    assert not unchecked, unchecked
    print(json.dumps(mon, indent=2))


def records_without_wall_time(path):
    doc = load(path)
    recs = doc["records"]
    for r in recs:
        for k in [k for k in r if k.endswith("_seconds")]:
            del r[k]
    return doc, recs


def check_diff(args):
    """Serial (cold) and parallel (warm) records match bit for bit."""
    for target in ["ppc", "rv32"]:
        cold_doc, cold = records_without_wall_time(
            f"fleet-report-cold-{target}.json")
        _, warm = records_without_wall_time(f"fleet-report-warm-{target}.json")
        assert cold_doc["target"] == target, cold_doc["target"]
        assert len(cold) == len(warm), (len(cold), len(warm))
        for i, (a, b) in enumerate(zip(cold, warm)):
            assert a == b, (target, i,
                            {k: (a.get(k), b.get(k))
                             for k in set(a) | set(b)
                             if a.get(k) != b.get(k)})
    cold_doc, _ = records_without_wall_time("fleet-report-cold-ppc.json")
    emit({
        "schema": cold_doc["schema"],
        "preset": args.preset,
        "units": cold_doc["units"],
        "configs": cold_doc["configs"],
        "wall_seconds": round(cold_doc["wall_seconds"], 3),
        "jobs_per_second": round(cold_doc["nodes_per_second"], 3),
        "records_bit_identical": True,
    }, "BENCH_throughput.json")


def check_ssa(args):
    """The SSA campaign is clean and its bounds are compared to scalar."""
    ssa = load("fleet-report-ssa.json")
    ref = load("fleet-report-nossa.json")
    assert ssa["schema"] == FLEET_SCHEMA, ssa["schema"]
    assert ssa["ssa"] is True and ref["ssa"] is False
    mon = ssa["monitor"]
    assert mon["mode"] == "full" and mon["violations"] == 0, mon
    recs = ssa["records"]
    bad = [r["name"] for r in recs if not r["ok"] or r["monitor_violations"]]
    assert not bad, bad
    ipet = [r for r in recs if r["wcet_ipet_cycles"] > 0]
    assert all(r["wcet_ipet_certified"] for r in ipet), "uncertified"
    base = {(r["name"], r["config"]): r for r in ref["records"]}
    pairs = [(r, base[(r["name"], r["config"])]) for r in recs
             if (r["name"], r["config"]) in base]
    tighter = [p for p in pairs if p[0]["wcet_cycles"] < p[1]["wcet_cycles"]]
    gain = sum((b["wcet_cycles"] - a["wcet_cycles"]) / b["wcet_cycles"]
               for a, b in pairs if b["wcet_cycles"] > 0)
    emit({
        "schema": ssa["schema"],
        "preset": args.preset,
        "ssa_records": len(recs),
        "monitored_steps": mon["steps"],
        "ipet_certified": len(ipet),
        "tighter_than_scalar": len(tighter),
        "mean_wcet_delta_pct":
            round(100.0 * gain / len(pairs), 4) if pairs else 0.0,
    }, "BENCH_ssa.json")


def check_crosstarget(args):
    """Every target's campaign is clean."""
    doc = load("BENCH_crosstarget.json")
    assert doc["schema"] == "vcflight-crosstarget-v1", doc["schema"]
    for target, campaign in doc["campaigns"].items():
        assert campaign["target"] == target, (target, campaign["target"])
        assert campaign["monitor"]["violations"] == 0, target
        bad = [r["name"] for r in campaign["records"] if not r["ok"]]
        assert not bad, (target, bad)
    print("targets:", ", ".join(sorted(doc["campaigns"])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="lane", required=True)
    for name, fn in [("ipet", check_ipet), ("monitor", check_monitor),
                     ("diff", check_diff), ("ssa", check_ssa),
                     ("crosstarget", check_crosstarget)]:
        p = sub.add_parser(name, help=fn.__doc__)
        if name in ("diff", "ssa"):
            p.add_argument("--preset", required=True,
                           help="CMake preset the campaign binaries came "
                                "from (recorded in the output)")
        if name == "monitor":
            p.add_argument("--mode", choices=sorted(MONITOR_REPORTS),
                           default="full",
                           help="monitor mode the campaign ran with")
        p.set_defaults(fn=fn)
    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
