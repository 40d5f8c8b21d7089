"""mpmath reference values for the zeta-points gate, in a process of their own.

    python3 perfbench/oracle.py < requests.json > values.json

Reads a JSON list of [evaluator, re, im] and writes a JSON list of [re, im],
each computed at MPMATH_DPS decimal digits straight from the definitions.
Running apart keeps mpmath's memory out of the benchmark process's peak RSS.
"""

import json
import sys

import mpmath as mp

MPMATH_DPS = 30


def zeta_imp(w):
    return (1 - mp.power(2, -w)) * mp.zeta(w)


def zeta_beta(w):
    return zeta_imp(2 * w - 1) / zeta_imp(w)


REFERENCES = {
    "zeta": mp.zeta,
    "zeta-a": mp.altzeta,
    "zeta-imp": zeta_imp,
    "zeta-lambda": lambda z: mp.zeta(2 * z) / mp.zeta(z),
    "zeta-mu": lambda z: 1 / mp.zeta(z),
    "zeta-alpha": lambda z: mp.altzeta(2 * z) / mp.altzeta(z),
    "zeta-beta": zeta_beta,
    "zeta-nu": lambda z: zeta_beta(z + 1.5) / zeta_imp(z + 1),
    "gamma": mp.gamma,
    "mellin_prefactor": lambda z: (mp.power(2, 1 - 2 * z) / mp.pi * mp.cos(mp.pi * z / 2)
                                   * mp.cos(mp.pi * z / 2 + mp.pi / 4) * mp.gamma(0.5 - z)),
    "alpha_to_lambda_factor": lambda z: (1 - mp.power(2, 1 - z)) / (1 - mp.power(2, 1 - 2 * z)),
}


def main() -> int:
    out = []
    with mp.workdps(MPMATH_DPS):
        for name, re, im in json.load(sys.stdin):
            value = complex(REFERENCES[name](mp.mpc(re, im)))
            out.append([value.real, value.imag])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
