"""The builders' output and the seeded first-improvement walks, pinned byte
for byte.

Each builder digest is the sha256 of the JSON the builder's output serialises
to: the instance document for `2by3` and `3by5`; for `bool-pw4` the instance,
codec and decomposition documents and the start, as one JSON list.  Any
change to a label, a scope, a table entry or the constraint order shows.
The builders share each position's rows between builds of every n, so the
pins are also checked after building in descending n.

Each walk digest is the sha256 of `trace_to_json` of a recorded
first-improvement walk from the family's canonical start, so any change to
the order in which the seeded scan draws its moves shows.

The verify digest is the sha256 of every check's JSON report at small caps,
without its run time, so any change to a verdict, a detail line or a
counterexample shows.

The landscape digest pins `ExpandedLandscape`, the padding reference: the
padded value of every state of `build_2by3(n)`'s expansion for n = 2..4,
and the two-intermediate ceiling where a state has one.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from ascentlab import (
    ExpandedLandscape,
    build_2by3,
    build_3by5,
    build_boolean_pw4,
    build_family,
    canonical_start,
    first_improvement_ascent,
    instance_to_json,
    trace_to_json,
)
from ascentlab import constructions
from ascentlab.constructions import FAMILIES
from ascentlab.model import decomposition_to_json
from ascentlab.verification import run_all

DIGESTS = {
    ("2by3", 2): "b478bbfe3ef18c4dcc1886eb3832aa81cd5505a3ca683f417d1975e538ce7917",
    ("2by3", 3): "b27165aa2fff0aa1c74d980c21b58954be1153fe551472091b1cf2a7b494ed2b",
    ("2by3", 4): "0f0daa3e5c807abee0ae644c2c46b1032ba339b942849a2786dc32c130faea9e",
    ("2by3", 5): "06950dfab807b78c274547365dcacaaad5281574194be4eaff00c062b7face96",
    ("2by3", 8): "e0c593aad61f83b162e1746d2a4d180532f8cffd62b12b107766895865edb66c",
    ("2by3", 13): "87666d4f66433cc29dce49bacd5e3268c13cac1657fcc78f562aaad46955ca93",
    ("3by5", 2): "c39bef8d9fb9b1ac7e94cb2480a744ec4ea4f4a48bfc4ad47384fb0689bb7be4",
    ("3by5", 3): "9e8d01e0af4e6e043c0a1973ade024fde45eb6fe889235466965173448ac1553",
    ("3by5", 4): "48461f2df6ae222bbb043d2827c2e4b5bfb0205543dbd9add29d71e45ac25508",
    ("3by5", 5): "47646c99703ed64190cc813cbdfce35cd053dd99cae59495078f9d0ffc124231",
    ("3by5", 8): "44673b2112819fbc8a20e34796b37e950b91a396a2cd538a03410b537949415d",
    ("3by5", 13): "41568a415a506da1b8d60ee4ef8d79c668b71076f800c43983154a58dc98a900",
    ("bool-pw4", 2): "a291da0e354be0d23676e12920b2ddd7a515bfef4044d9388b29479746dca087",
    ("bool-pw4", 3): "9e7ae6dc7ff4e3534d9cdaff638aaeb1be241201fafd360fab625b439ab5a843",
    ("bool-pw4", 4): "5a19adc9d6ec36fe95198b0172ef8d99208436104acd1710ab7279d33b146cfe",
    ("bool-pw4", 5): "335248ca1672e6ad1fa1b86ed05e83319da9a25598bdeca853ef8522dc1763ed",
    ("bool-pw4", 8): "cb3323e90298c6f2fa5d82ac551934950e63d3ba8a171709519c808f827c8d8c",
    ("bool-pw4", 13): "ba05a122995835e9e8f04cfadb7d3fdbe8769ff9f3501736936ba48fdb110f06",
    ("2by3", 60): "74884106975a6581123460136f8acd64855acf5ba95103c13624cf5ad42227fe",
    ("3by5", 60): "974ea608c60aa5f44a37d9ed4928e9c2f9467b9cf5830d287c98a83e63ef33b4",
    ("bool-pw4", 200): "4c6bbc289b30fb46d1580b5d0d5130265035d6aeba812e9fd1a50d50c50781e3",
}


def _document(family: str, n: int):
    if family == "2by3":
        return instance_to_json(build_2by3(n))
    if family == "3by5":
        return instance_to_json(build_3by5(n))
    inst, codec, decomp, start = build_boolean_pw4(n)
    return [instance_to_json(inst), codec.to_json(), decomposition_to_json(decomp), list(start)]


def _digest(family: str, n: int) -> str:
    return hashlib.sha256(json.dumps(_document(family, n)).encode()).hexdigest()


@pytest.mark.parametrize("family,n", list(DIGESTS), ids=[f"{f}-{n}" for f, n in DIGESTS])
def test_builder_output_is_pinned(family, n):
    assert _digest(family, n) == DIGESTS[family, n]


@pytest.mark.parametrize("family", FAMILIES)
def test_builds_in_descending_n_keep_their_pins(family):
    # The builders share each position's rows between builds of every n, so
    # rows first made for a longer chain must leave a shorter one unchanged.
    for cached in vars(constructions).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    for n in range(30, 1, -1):
        build_family(family, n)
    for n in (2, 5, 13):
        assert _digest(family, n) == DIGESTS[family, n]


FIRST_DIGESTS = {
    ("2by3", 6, 0): "be3b335182aaa487bd0e9db90e69df619176c42ce4ebcf6a838aec42e0781f41",
    ("2by3", 6, 1): "5a941b414e2e1297903c24fa98a09ab275810337c9e17833d44ff0c6bbec308a",
    ("2by3", 6, 2): "a084248d4ebd68aa77173f73f19ff9b165819ff5ae6f37968c2de0e1770f983d",
    ("3by5", 4, 0): "8512d40dcc9b31b24997919a3b9b4aff5dd122ee2edff726c167e028894467fb",
    ("3by5", 4, 1): "1c2c241f46baa5a451cf1ba705867c0afe8c06bf00a635b5920d1923aca78202",
    ("3by5", 4, 2): "f1dfd09a07567be1d4b7e7af8d3499a71cfff7bf5d03e542fbf76ccd01a76942",
    ("bool-pw4", 4, 0): "fe769684da024d0815fc8b33cad079fe6348ec34d9979efb5ae8e1b9e45b1e8e",
    ("bool-pw4", 4, 1): "2d747eb21c78fc3a082865dcf23db52a6435a15f80b6a414c97916545a149b92",
    ("bool-pw4", 4, 2): "fbf4b650db4b783eb2dc02676936640e444ff8c89a35477532a5a7a9bb375fac",
}


@pytest.mark.parametrize(
    "family,n,seed", list(FIRST_DIGESTS), ids=[f"{f}-{n}-seed{s}" for f, n, s in FIRST_DIGESTS]
)
def test_first_improvement_walk_is_pinned(family, n, seed):
    inst = build_family(family, n)
    trace = first_improvement_ascent(inst, canonical_start(family, n), seed=seed)
    text = json.dumps(trace_to_json(trace, inst))
    assert hashlib.sha256(text.encode()).hexdigest() == FIRST_DIGESTS[family, n, seed]


# The benchmark's small verify caps, copied so that the digest does not move
# with the benchmark.
VERIFY_CAPS = {
    "ordered-length": 4,
    "simulation": 4,
    "simulation-verify": 4,
    "padding": 3,
    "boolean": 4,
    "boolean-equiv": 2,
    "pathwidth": 6,
}
VERIFY_DIGEST = "3ef2bed46dc1b98f551e567e8449ef6df917f71a25611fef75ca23d277875683"


def test_verify_reports_are_pinned():
    reports = [report.to_json() for report in run_all(VERIFY_CAPS)]
    for report in reports:
        del report["runtime_s"]
    text = json.dumps(reports)
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_DIGEST


LANDSCAPE_DIGEST = "7321e8a9666a36186e57b788364c9cc2fec4320d57e62db273ff6d6e5985d4c5"


def test_expanded_landscape_values_are_pinned():
    rows = []
    for n in range(2, 5):
        ls = ExpandedLandscape(build_2by3(n))
        for x in itertools.product(*(range(d.size) for d in ls.domains)):
            defect = ls.padding_defect(x, 10**9)
            rows.append([n, list(x), ls.fitness(x), defect and defect.get("ceiling")])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == LANDSCAPE_DIGEST
