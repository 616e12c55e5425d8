"""Regenerate bench/fixtures.json: the pinned safe-prime groups the
benchmark runs on.

Each group is produced by dlogcrt.gen_safe_prime(bits, seed) and stored with
its (bits, seed) so it can be reproduced; a0 is the smallest primitive root.
The 512-bit groups take about a minute each to generate, which is why the
integers are checked in rather than generated at set-up.

    PYTHONPATH=src python3 bench/make_fixtures.py > bench/fixtures.json
"""

import json

from dlogcrt import Factorization, gen_safe_prime, primitive_root

# (workload, bits, seed): one group per size, four solver sizes and two
# cryptographic sizes for the polynomial layers.
GROUPS = (
    ("solve-large", 32, 1),
    ("solve-large", 34, 1),
    ("solve-large", 36, 1),
    ("solve-large", 38, 1),
    ("reduce-crypto", 256, 1),
    ("reduce-crypto", 512, 1),
)


def main() -> None:
    groups = []
    for workload, bits, seed in GROUPS:
        params = gen_safe_prime(bits, seed)
        a0 = primitive_root(params.p, Factorization(((2, 1), (params.q, 1))))
        groups.append(
            {
                "workload": workload,
                "bits": bits,
                "seed": seed,
                "p": str(params.p),
                "q": str(params.q),
                "a0": str(a0),
            }
        )
    print(json.dumps({"groups": groups}, indent=2))


if __name__ == "__main__":
    main()
