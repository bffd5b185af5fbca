#!/usr/bin/env python3
"""Mirrored canary traffic for the rollout smoke drill.

Replays the dataset's val+test interactions against mamdr-serve, sending
every batch TWICE under paired X-Request-IDs: one ID precomputed to hash
into the canary arm, one into the incumbent arm (the server routes a
request to the canary iff FNV-1a(rid)/2^32 < fraction, so the arm is a
pure function of the ID). Both arms therefore score the same user-item
pairs and join the same true labels, which removes traffic-sampling
noise from the gate's comparison:

  - a canary serving identical weights shows exactly zero AUC / logloss
    / PSI gap and promotes deterministically;
  - a genuinely regressed canary (the label-flipped drill checkpoint)
    differs only because its *model* scores the shared traffic worse,
    so the auto-rollback is deterministic too.

Stdlib only (urllib); the dataset JSON comes from `datagen -out`.
"""

import argparse
import concurrent.futures
import json
import random
import sys
import threading
import urllib.request


def fnv1a32(s):
    """FNV-1a, mirroring Go's hash/fnv New32a over the rid bytes."""
    h = 2166136261
    for b in s.encode():
        h ^= b
        h = (h * 16777619) & 0xFFFFFFFF
    return h


def rid_for(arm, seq, fraction):
    """Smallest suffixed ID that routes to the requested arm."""
    for k in range(10000):
        rid = "mirror-%d-%d" % (seq, k)
        canary = fnv1a32(rid) / 2.0**32 < fraction
        if canary == (arm == "canary"):
            return rid
    raise RuntimeError("no rid found for arm %s at fraction %g" % (arm, fraction))


def post(url, payload, timeout, rid=None):
    headers = {"Content-Type": "application/json"}
    if rid:
        headers["X-Request-ID"] = rid
    req = urllib.request.Request(url, data=json.dumps(payload).encode(), headers=headers)
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", default="http://127.0.0.1:8086", help="mamdr-serve base URL")
    ap.add_argument("--data", required=True, help="dataset JSON written by datagen: the file the served checkpoint was trained on (mamdr-train -data), or datagen run at the trainer's -preset/-samples/-seed")
    ap.add_argument("--fraction", type=float, default=0.5, help="the server's -canary-fraction (rids are precomputed against it)")
    ap.add_argument("--repeat", type=int, default=4, help="times to replay the val+test set (drives both arms past the gate's evidence thresholds)")
    ap.add_argument("--batch", type=int, default=16)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--timeout", type=float, default=10.0)
    ap.add_argument("--workers", type=int, default=1,
                    help="concurrent request threads (>1 gives a batching server real batchmates to coalesce)")
    ap.add_argument("--dump-scores", default="",
                    help="write one JSON line per predict request ({rid, domain, scores}), sorted by rid -- "
                         "diffing two dumps of the same replay proves batched == unbatched bit-identically")
    args = ap.parse_args()

    with open(args.data) as f:
        ds = json.load(f)
    rng = random.Random(args.seed)

    # Build the full job list up front; the rid fixes each job's arm, so
    # execution order (or concurrency) cannot change what is compared.
    jobs = []
    seq = 0
    for dom in ds["Domains"]:
        ins = list(dom.get("Val") or []) + list(dom.get("Test") or [])
        if not ins:
            continue
        ins = ins * args.repeat
        rng.shuffle(ins)
        for start in range(0, len(ins), args.batch):
            chunk = ins[start : start + args.batch]
            seq += 1
            for arm in ("canary", "incumbent"):
                jobs.append((rid_for(arm, seq, args.fraction), dom["ID"], chunk))

    lock = threading.Lock()
    totals = {"requests": 0, "joined": 0, "labels": 0}
    dumped = []

    def run(job):
        rid, domain, chunk = job
        resp = post(
            args.base + "/predict",
            {
                "domain": domain,
                "users": [i["User"] for i in chunk],
                "items": [i["Item"] for i in chunk],
            },
            args.timeout,
            rid=rid,
        )
        got = resp.get("request_id")
        if got != rid:
            raise RuntimeError("server ignored X-Request-ID: sent %s, got %s" % (rid, got))
        fb = post(
            args.base + "/feedback",
            {"request_id": rid, "labels": [float(i["Label"]) for i in chunk]},
            args.timeout,
        )
        with lock:
            totals["requests"] += 1
            totals["joined"] += 1
            totals["labels"] += fb.get("joined", 0)
            if args.dump_scores:
                dumped.append({"rid": rid, "domain": domain, "scores": resp["probabilities"]})

    if args.workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.workers) as pool:
            for err in pool.map(run, jobs):
                _ = err
    else:
        for job in jobs:
            run(job)

    if args.dump_scores:
        with open(args.dump_scores, "w") as f:
            for rec in sorted(dumped, key=lambda r: r["rid"]):
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        print("dumped %d score records to %s" % (len(dumped), args.dump_scores))

    print("mirrored: %d predict requests (%d pairs), %d feedback joins, %d labels"
          % (totals["requests"], seq, totals["joined"], totals["labels"]))
    if totals["joined"] == 0:
        print("no feedback joined -- did /feedback reach the server that answered /predict?", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
