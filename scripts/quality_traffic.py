#!/usr/bin/env python3
"""Replay dataset traffic against mamdr-serve's /predict + /feedback.

Two modes drive the quality-observability smoke:

  control  replay the dataset's val+test interactions with their true
           labels — traffic matched to the baseline the server profiled
           from its validation split, so PSI stays low, the windowed
           AUC tracks the offline AUC, and no quality SLO burns.

  drift    concentrate every request on a few fixed items and invert
           every label — the served score distribution collapses into a
           few histogram bins (score PSI blows past 0.25) and the
           prequential AUC drops below the fleet floor, so the
           quality-psi-drift and quality-auc-floor SLOs fire.

Stdlib only (urllib); the dataset JSON comes from `datagen -out`.
"""

import argparse
import json
import random
import sys
import urllib.request


def post(url, payload, timeout):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", default="http://127.0.0.1:8085", help="mamdr-serve base URL")
    ap.add_argument("--data", required=True, help="dataset JSON written by datagen: the file the served checkpoint was trained on (mamdr-train -data), or datagen run at the trainer's -preset/-samples/-seed")
    ap.add_argument("--mode", choices=["control", "drift"], required=True)
    ap.add_argument("--repeat", type=int, default=8, help="times to replay the val+test set (drives windows past the evidence thresholds)")
    ap.add_argument("--batch", type=int, default=16)
    ap.add_argument("--drift-items", type=int, default=3, help="drift mode: number of fixed items traffic collapses onto")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--timeout", type=float, default=10.0)
    args = ap.parse_args()

    with open(args.data) as f:
        ds = json.load(f)
    rng = random.Random(args.seed)

    requests = joined = labels_sent = 0
    for dom in ds["Domains"]:
        ins = list(dom.get("Val") or []) + list(dom.get("Test") or [])
        if not ins:
            continue
        if args.mode == "drift":
            items = sorted({i["Item"] for i in ins})[: args.drift_items]
            ins = [
                {"User": i["User"], "Item": items[k % len(items)], "Label": 1 - i["Label"]}
                for k, i in enumerate(ins)
            ]
        ins = ins * args.repeat
        rng.shuffle(ins)
        for start in range(0, len(ins), args.batch):
            chunk = ins[start : start + args.batch]
            resp = post(
                args.base + "/predict",
                {
                    "domain": dom["ID"],
                    "users": [i["User"] for i in chunk],
                    "items": [i["Item"] for i in chunk],
                },
                args.timeout,
            )
            requests += 1
            rid = resp.get("request_id")
            if not rid:
                continue
            fb = post(
                args.base + "/feedback",
                {"request_id": rid, "labels": [float(i["Label"]) for i in chunk]},
                args.timeout,
            )
            joined += 1
            labels_sent += fb.get("joined", 0)

    print(f"{args.mode}: {requests} predict requests, {joined} feedback joins, {labels_sent} labels")
    if joined == 0:
        print("no feedback joined — did /feedback reach the server that answered /predict?", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
