#!/usr/bin/env python3
"""CI perf-regression gate: diff fresh bench telemetry against committed anchors.

Every bench binary that matters for performance emits a BENCH_<name>.json
sidecar (schema: benchlib.h TelemetrySink — {"bench", "points": [{"series",
"x", "metrics", "histograms"}], "host"}). The committed copies at the repo
root are the anchors; scripts/run_tier1.sh re-runs the benches into
build/bench-out/ and this script compares the two, metric by metric, with
per-metric tolerance bands:

  * default: relative 35% with an absolute slack of 8 (counters with tiny
    values flap by a few ops between legitimate runs);
  * x-labels of the form "key=value;key=value" are parsed as metrics too:
    "pass" must match exactly, "speedup"/"budget_us" are tight (15%), and
    "downtime_us"/"fence_us" are loose (scheduling-sensitive tails);
  * histogram percentiles are only compared when the anchor saw >= 64
    samples (below that, one op moving buckets shifts p99 by a bucket);
  * queueing-delay metrics, migration dirty-byte counters, the RNIC
    doorbell-batch-size histogram, and the percentile tails of the
    stage-attribution (lite.lat.*) histograms are ignored: they measure
    real-thread interleaving noise, not the code under test (counts and
    sums of the attribution histograms stay guarded — conservation pins
    them);
  * benches listed in XLABEL_ONLY (bench_migrate: real writer threads
    racing the migration make every traffic counter flap) are judged on
    their x-label contract only;
  * each sidecar's "host" block (what the bench process cost the host) is
    printed for the anchor and the fresh run, and gated by HOST_BANDS: peak
    RSS may exceed the anchor's by 35% plus 16 MB, wall time may reach 4x
    the anchor's plus 2 s. SUBSET_OK anchors skip this gate, since their
    anchor run is a bigger sweep than the fresh one.

Points are paired by (series, x) after stripping numeric values out of
key=value x-labels, so a run whose measured downtime moved slightly still
pairs with its anchor point.

Exit 0 when every paired metric is within band; exit 1 with one line per
violation otherwise. Stdlib only.
"""

import argparse
import glob
import json
import os
import re
import sys

# Metrics that measure run-to-run contention noise, not regressions.
IGNORE_SUBSTRINGS = ("queue_delay",)
# doorbell_batch: whether consecutive posts coalesce into one RNIC doorbell
# window depends on real client/server thread interleaving, so the batch-size
# histogram flaps run to run; the merged-doorbell *counters*
# (lite.rnic.doorbells, lite.rnic.wqes_batched) stay guarded.
IGNORE_EXACT = ("lite.migrate.dirty_bytes", "lite.rnic.doorbell_batch")

# Stage-attribution histograms split round-trip waits proportionally to
# per-WQE queueing, so their tails (min/max/percentiles) move with thread
# interleaving under deep async windows. count and sum stay guarded — the
# watchdog's sum(stages)==e2e conservation pins them.
PERCENTILE_IGNORE_SUBSTRINGS = ("lite.lat.",)

# Benches whose counters all scale with how much concurrent traffic happened
# to overlap the measured window (real writer threads racing a migration:
# converge rounds, dirty re-copy bytes, wire volume all flap 2-7x run to
# run). Their regression contract is the x-label (pass, fence vs budget);
# metric/histogram snapshots are informational only.
XLABEL_ONLY = ("BENCH_migrate.json", "BENCH_transport_scale.json")

# Benches whose committed anchor spans a larger sweep than the CI smoke run
# (the transport scale anchor covers 8..1000 nodes; tier-1 re-runs only the
# 8/100-node smoke): anchor points with no fresh partner are skipped instead
# of flagged. Pairing stays positional within a series, and both the sweep
# and the smoke emit sizes in ascending order, so the smoke prefix always
# pairs with the anchor prefix.
SUBSET_OK = ("BENCH_transport_scale.json",)

# (relative tolerance, absolute slack) per x-label metric; None rel = exact.
XLABEL_BANDS = {
    "pass": (None, 0.0),
    "speedup": (0.15, 0.05),
    "budget_us": (0.15, 2.0),
    "downtime_us": (2.0, 50.0),
    "fence_us": (2.0, 50.0),
    # Ring batch sweep (BENCH_ring_batch.json): the batch size is structural
    # (exact); per-op cost, ops-per-crossing, and requests/us are virtual-time
    # deterministic, so the bands are tight.
    "batch": (None, 0.0),
    "nsop": (0.15, 5.0),
    "opc": (0.10, 0.5),
    "requs": (0.15, 0.25),
    # Transport scale sweep (BENCH_transport_scale.json): node count and QP
    # state bytes are structural (exact); mean latency is virtual-time stable;
    # p99 and the QPC hit rate move with real thread interleaving (which ops
    # collide in the responder QPC), so their bands are looser; connect-rate
    # is ~0 in steady state and judged on slack alone.
    "nodes": (None, 0.0),
    "lat_ns": (0.15, 100.0),
    "p99_ns": (0.30, 200.0),
    "qpc_hit": (0.15, 0.08),
    "conn_per_op": (1.0, 1.0),
    "qp_bytes": (None, 0.0),
}
DEFAULT_BAND = (0.35, 8.0)

# Host-cost ceilings, key -> (factor, slack): the fresh value may reach
# factor * anchor + slack. Peak RSS catches memory paid for up front (node
# pools written at construction made bench_micro 25x bigger); the wall band
# is loose because tier-1 shares its host with other work.
HOST_BANDS = {
    "maxrss_kb": (1.35, 16 * 1024),
    "wall_ns": (4.0, 2e9),
}

# Histogram percentile fields need enough mass to be stable.
PERCENTILE_FIELDS = ("p50", "p99", "p999", "min", "max")
MIN_COUNT_FOR_PERCENTILES = 64


def ignored(name):
    return name in IGNORE_EXACT or any(s in name for s in IGNORE_SUBSTRINGS)


def within(anchor, fresh, band):
    rel, slack = band
    if rel is None:
        return anchor == fresh
    return abs(fresh - anchor) <= max(slack, rel * max(abs(anchor), abs(fresh)))


def parse_xlabel(x):
    """'downtime_us=8.5;pass=1' -> {'downtime_us': 8.5, 'pass': 1.0}; else {}."""
    out = {}
    for part in x.split(";"):
        if "=" not in part:
            return {}
        key, _, val = part.partition("=")
        try:
            out[key] = float(val)
        except ValueError:
            return {}
    return out


def pair_key(point):
    # Strip numeric values from key=value x-labels so measured-value drift
    # doesn't break pairing; plain x-labels ("64", "4KB") pair literally.
    x = re.sub(r"=[-+0-9.eE]+(;|$)", r"=\1", point.get("x", ""))
    return (point.get("series", ""), x)


def check_point(name, anchor, fresh, violations):
    tag = "%s[%s|%s]" % (name, anchor.get("series", ""), anchor.get("x", ""))

    ax = parse_xlabel(anchor.get("x", ""))
    fx = parse_xlabel(fresh.get("x", ""))
    for key, aval in ax.items():
        if key not in fx:
            violations.append("%s: x-label metric %s missing from fresh run" % (tag, key))
            continue
        band = XLABEL_BANDS.get(key, DEFAULT_BAND)
        if not within(aval, fx[key], band):
            violations.append("%s: x-label %s anchor=%g fresh=%g out of band %r" %
                              (tag, key, aval, fx[key], band))

    if name in XLABEL_ONLY:
        return

    fresh_metrics = fresh.get("metrics", {})
    for key, aval in anchor.get("metrics", {}).items():
        if ignored(key):
            continue
        if key not in fresh_metrics:
            violations.append("%s: metric %s disappeared" % (tag, key))
            continue
        if not within(float(aval), float(fresh_metrics[key]), DEFAULT_BAND):
            violations.append("%s: metric %s anchor=%s fresh=%s out of band" %
                              (tag, key, aval, fresh_metrics[key]))

    fresh_hists = fresh.get("histograms", {})
    for key, ahist in anchor.get("histograms", {}).items():
        if ignored(key):
            continue
        fhist = fresh_hists.get(key)
        if fhist is None:
            violations.append("%s: histogram %s disappeared" % (tag, key))
            continue
        fields = ["count", "sum"]
        if (ahist.get("count", 0) >= MIN_COUNT_FOR_PERCENTILES
                and not any(s in key for s in PERCENTILE_IGNORE_SUBSTRINGS)):
            fields += [f for f in PERCENTILE_FIELDS if f in ahist and f in fhist]
        for field in fields:
            if not within(float(ahist.get(field, 0)), float(fhist.get(field, 0)), DEFAULT_BAND):
                violations.append("%s: histogram %s.%s anchor=%s fresh=%s out of band" %
                                  (tag, key, field, ahist.get(field), fhist.get(field)))


def format_host(host):
    if host is None:
        return "none"
    return "wall %.2f s, user %.2f s, sys %.2f s, maxrss %.1f MB, %d threads, %d csw" % (
        host["wall_ns"] / 1e9, host["user_ns"] / 1e9, host["sys_ns"] / 1e9,
        host["maxrss_kb"] / 1024.0, host["threads"], host["csw"])


def check_host(name, anchor, fresh, violations):
    print("check_bench: %s host anchor: %s" % (name, format_host(anchor)))
    print("check_bench: %s host fresh:  %s" % (name, format_host(fresh)))
    if name in SUBSET_OK:
        return
    if anchor is None or fresh is None:
        violations.append("%s: host block missing from the %s" %
                          (name, "anchor" if anchor is None else "fresh run"))
        return
    for key, (factor, slack) in HOST_BANDS.items():
        ceiling = factor * anchor[key] + slack
        if fresh[key] > ceiling:
            violations.append("%s: host %s anchor=%d fresh=%d above %g x anchor + %g" %
                              (name, key, anchor[key], fresh[key], factor, slack))


def check_file(anchor_path, fresh_path, violations):
    name = os.path.basename(anchor_path)
    with open(anchor_path) as f:
        anchor = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    check_host(name, anchor.get("host"), fresh.get("host"), violations)
    fresh_points = {}
    for p in fresh.get("points", []):
        fresh_points.setdefault(pair_key(p), []).append(p)
    npoints = 0
    for p in anchor.get("points", []):
        candidates = fresh_points.get(pair_key(p))
        if not candidates:
            if name in SUBSET_OK:
                continue
            violations.append("%s: no fresh point pairs with series=%r x=%r" %
                              (name, p.get("series"), p.get("x")))
            continue
        check_point(name, p, candidates.pop(0), violations)
        npoints += 1
    return npoints


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(here)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--anchor-dir", default=repo,
                    help="directory holding the committed BENCH_*.json anchors")
    ap.add_argument("--fresh-dir", default=os.path.join(repo, "build", "bench-out"),
                    help="directory holding the freshly generated BENCH_*.json files")
    args = ap.parse_args()

    anchors = sorted(glob.glob(os.path.join(args.anchor_dir, "BENCH_*.json")))
    if not anchors:
        print("check_bench: no BENCH_*.json anchors in %s" % args.anchor_dir, file=sys.stderr)
        return 1

    violations = []
    checked = []
    for anchor_path in anchors:
        base = os.path.basename(anchor_path)
        fresh_path = os.path.join(args.fresh_dir, base)
        if not os.path.exists(fresh_path):
            violations.append("%s: fresh run missing (expected %s)" % (base, fresh_path))
            continue
        npoints = check_file(anchor_path, fresh_path, violations)
        checked.append("%s (%d points)" % (base, npoints))

    print("check_bench: compared %d anchors: %s" % (len(checked), ", ".join(checked)))
    if violations:
        for v in violations:
            print("check_bench: FAIL %s" % v, file=sys.stderr)
        print("check_bench: %d violation(s)" % len(violations), file=sys.stderr)
        return 1
    print("check_bench: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
