"""Byte-for-byte pins of every encoded control program and of its search.

A seeded sweep encodes each (rule, action, mode) over n, m in [1, 5] and
hashes the LP and MPS exports of every program in sweep order. The table
was computed before the encoders were restructured to build each mode in
one pass, so any change of model name, variable order, row order, tag,
coefficient or big-M value shows up here as a named mismatch.

A second table hashes `canonical_result(solve(...))` (status, objective,
bound, node count and incumbent point) of the same sweeps and of two
seeded batches of random programs. It was computed before the solver's
rows were rewritten into one `a·x <= b` form, so any change of the search
shows up as a mismatch named after the sweep that changed.
"""

import hashlib
import random

import pytest

from ballotcontrol import (
    ControlSpec,
    build_problem,
    canonical_result,
    export_lp,
    export_mps,
    solve,
)
from genutil import (
    random_big_coefficient_program,
    random_binary_program,
    random_election,
    random_score_election,
)

GOLDEN = {
    ("range", "delete-voters", "constructive"): (
        "4ba9e4deaa5bd7965ae2169f92bb903831d66b4fb6e9bc27533bf8828ae105aa"
    ),
    ("range", "delete-voters", "destructive"): (
        "bd4d007dd56f98c18ffa3b0f278dddd683736d8c4d1c8b00c662b258e4ea7d42"
    ),
    ("condorcet", "delete-voters", "constructive"): (
        "0f56662a261ca7f0db9e64cb1351a8fe4496ed5b6c7525e27c97c4f314a91ff1"
    ),
    ("condorcet", "delete-voters", "destructive"): (
        "03ff39585a9c16f32f10c3e9635454ad8bdffa16db85812b6e86cbe433ef1c19"
    ),
    ("plurality", "delete-candidates", "constructive"): (
        "f4466eb99ab3f0aec29166fff5c1f4e58a8eb8f3b4f179adbcf7b7d9d5d671d9"
    ),
    ("plurality", "delete-candidates", "destructive"): (
        "6cae5fe42abcb7d0ed6f57c57e649c82680da3da6aac67195603ac34bc0212ce"
    ),
    ("maximin", "delete-voters", "constructive"): (
        "7b79e8dfc736b9f0d2ed74b1df0a4080d2ea6b4f39b71db999e95bd704f93a21"
    ),
    ("maximin", "delete-voters", "destructive"): (
        "88bec42639a9eb131a63271813aeb301d98f4a6dc6af81a357c3399d62f23c80"
    ),
    ("bucklin", "delete-voters", "constructive"): (
        "c034ba021b6e6a8082d786b89f129df1db3414f32406600bcd9b69043f3440ad"
    ),
    ("bucklin", "delete-voters", "destructive"): (
        "9e37f4774c644c06a48f21c3053c942ef0fcd156841185fa3f931bcf35dd07b2"
    ),
    ("bucklin", "delete-candidates", "constructive"): (
        "51153c7c66630415094156129dbc0225627103c85ef1aad34285b6c6c045bf41"
    ),
    ("bucklin", "delete-candidates", "destructive"): (
        "701d054ceb53435f0174a9eb2ef67dc74d2780de5f79e176ec7d19017c51c108"
    ),
}

# Condorcet and maximin programs at m=1 are not pinned: they are newer
# than the table.
_NEEDS_RIVAL = ("condorcet", "maximin")


def sweep_models(rule, action, mode, draws=2):
    """Every program of the seeded sweep, in sweep order."""
    rng = random.Random(f"{rule}/{action}/{mode}")
    for n in range(1, 6):
        for m in range(1, 6):
            if m == 1 and rule in _NEEDS_RIVAL:
                continue
            for _ in range(draws):
                if rule == "range":
                    election = random_score_election(rng, n, m, 3)
                else:
                    election = random_election(rng, n, m)
                spec = ControlSpec(rule, action, mode, rng.randint(1, m))
                problem, _, _ = build_problem(election, spec)
                yield problem.model


def sweep_digest(rule, action, mode):
    """SHA-256 over the exports of every program in the seeded sweep."""
    digest = hashlib.sha256()
    for model in sweep_models(rule, action, mode):
        digest.update(export_lp(model).encode())
        digest.update(export_mps(model).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "key", sorted(GOLDEN), ids=lambda key: "-".join(key)
)
def test_models_match_golden_table(key):
    rule, action, mode = key
    got = sweep_digest(rule, action, mode)
    assert got == GOLDEN[key], f"the {mode} {rule} {action} programs changed"


SOLVE_GOLDEN = {
    ('bucklin', 'delete-candidates', 'constructive'): (
        "f18efe27d4a9dc2db91937b5d305265f422b0348f2e79deb57ec37d59c74429e"
    ),
    ('bucklin', 'delete-candidates', 'destructive'): (
        "260677bb7d22322dad0d32c11ca9e1d176731e6a7e826784535a55e56278a56e"
    ),
    ('bucklin', 'delete-voters', 'constructive'): (
        "e7f600f2bbcba087978a6c583352c45f2191f8e3c44e9d1871cd6cc99a4608f8"
    ),
    ('bucklin', 'delete-voters', 'destructive'): (
        "913e38672398d8943b596068dc9a16c3c820848b50ff1093aa06f87e2236d3dd"
    ),
    ('condorcet', 'delete-voters', 'constructive'): (
        "c249152e491048f2aa08967518c8a3bd800fa3fc9307f9c4263a6a8863d6dc5d"
    ),
    ('condorcet', 'delete-voters', 'destructive'): (
        "5c79378307175ed375889b19d78a3228076767e40a68c7dc24c5b4c8ab849bd4"
    ),
    ('maximin', 'delete-voters', 'constructive'): (
        "56bd81f45a33ff07b09867ddad493cada792c899fed4920bbb44c25f69af2abe"
    ),
    ('maximin', 'delete-voters', 'destructive'): (
        "99cdc47b105ede433370ccc43252c2e37f9eac945c055b9c73afba7eb7f61385"
    ),
    ('plurality', 'delete-candidates', 'constructive'): (
        "7c2ed6477a29717d3477f33f4fa889de88ea06c21d006a15b2da870ec568a395"
    ),
    ('plurality', 'delete-candidates', 'destructive'): (
        "e00e371c5baabbb35dd6a667b5e90cb02776deb80dcc4bb145accc9b8e184c31"
    ),
    ('range', 'delete-voters', 'constructive'): (
        "1ae9e7aa3a3b70e677aad45c2a12599e59c8cc6b563fee6ab82f8258aafb1329"
    ),
    ('range', 'delete-voters', 'destructive'): (
        "5e520d4d8b97e6bb84b234184bc5854b2f060828ad07fdddb03484e366094c59"
    ),
    ('random-binary',): (
        "bbf4662315d758e0541599e282e7da82f56bd4e3fbace1206ffce6329f23ea68"
    ),
    ('random-big-coefficient',): (
        "401613e6e1e6472a3d8005d7c234d3892ecd7a4f2f0f119de48dac04f38cb4fa"
    ),
}

_RANDOM_DRAWS = 200


def random_models(kind):
    """`_RANDOM_DRAWS` seeded draws of one random program generator."""
    rng = random.Random(f"solve/{kind}")
    make = {
        "random-binary": random_binary_program,
        "random-big-coefficient": random_big_coefficient_program,
    }[kind]
    for _ in range(_RANDOM_DRAWS):
        yield make(rng)


def solve_digest(key):
    """SHA-256 over the canonical solve result of every program of a sweep."""
    models = random_models(key[0]) if len(key) == 1 else sweep_models(*key)
    digest = hashlib.sha256()
    for model in models:
        digest.update(canonical_result(solve(model)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "key", sorted(SOLVE_GOLDEN), ids=lambda key: "-".join(key)
)
def test_search_matches_golden_table(key):
    got = solve_digest(key)
    assert got == SOLVE_GOLDEN[key], f"the search on the {' '.join(key)} sweep changed"
