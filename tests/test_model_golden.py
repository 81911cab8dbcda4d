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
shows up as a mismatch named after the sweep that changed. Its bucklin
voter, condorcet destructive and maximin destructive entries were
recomputed when the solver began to search equal integral columns (the
keep variables of voters with one ballot) as one count column: only the
kept voters and node counts moved. A third table pins the status and
objective of every program of those sweeps; it was computed before that
change and holds across it.
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
        "91961b9f2a8a33d22f1848db461712d6674005002a3206469c7b830113f89c0a"
    ),
    ('bucklin', 'delete-candidates', 'destructive'): (
        "db02b1e8730351b3c4fa8d5427e0ee4655657dba8570cc07818538a17d19df1a"
    ),
    ('bucklin', 'delete-voters', 'constructive'): (
        "437b5b3f4014c90e1c6ddeb2cea6764cbcde36f8d924cbe9eaff67336e7af009"
    ),
    ('bucklin', 'delete-voters', 'destructive'): (
        "53e17b2ea119c06a908e60946f5fd37a9e823a2bd6d2b65fa3e12fba104dc432"
    ),
    ('condorcet', 'delete-voters', 'constructive'): (
        "fa66a32c2273aea94c7f7ebd197cc26936206c42dc6e0aa50c793c61515ea539"
    ),
    ('condorcet', 'delete-voters', 'destructive'): (
        "f55fff9fdb4b097e0755b65965d60e949173bd58b053a167c19ab88a47c76267"
    ),
    ('maximin', 'delete-voters', 'constructive'): (
        "f867c76319ca74f64b73b218eecbca66ced14042a0d70dbc1375255965a9f33d"
    ),
    ('maximin', 'delete-voters', 'destructive'): (
        "a97ee28cfeaf74f563faf05aa87018cc3702b46a84c0277750ef84ac4a727ba0"
    ),
    ('plurality', 'delete-candidates', 'constructive'): (
        "e09efe681d9073c05dbb64c85f681b4838c0501c335a3534f70da7b912ce8ab0"
    ),
    ('plurality', 'delete-candidates', 'destructive'): (
        "81178f60074fed5f4b10f1cd1a820f31cb9f206aca951fbda332717455fc25e6"
    ),
    ('range', 'delete-voters', 'constructive'): (
        "1ae9e7aa3a3b70e677aad45c2a12599e59c8cc6b563fee6ab82f8258aafb1329"
    ),
    ('range', 'delete-voters', 'destructive'): (
        "a53380960e33536c93fa621227aa8ba4eccd7a95f3788950bebd7f89acef6964"
    ),
    ('random-binary',): (
        "f602d4de9c11bd2d435e24cc65cbafe7250270cdb2c33c3756188cfc232f310a"
    ),
    ('random-big-coefficient',): (
        "f93150db36aa56939c3c64039f2ffb7cae553ade1ba00db12b95fbcef57eab8d"
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


def search_models(key):
    """The programs of one `SOLVE_GOLDEN` sweep."""
    return random_models(key[0]) if len(key) == 1 else sweep_models(*key)


def solve_digest(key):
    """SHA-256 over the canonical solve result of every program of a sweep."""
    digest = hashlib.sha256()
    for model in search_models(key):
        digest.update(canonical_result(solve(model)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "key", sorted(SOLVE_GOLDEN), ids=lambda key: "-".join(key)
)
def test_search_matches_golden_table(key):
    got = solve_digest(key)
    assert got == SOLVE_GOLDEN[key], f"the search on the {' '.join(key)} sweep changed"


# The outcome of every program of each sweep of `SOLVE_GOLDEN`: status and
# objective only. Computed before the solver searched interchangeable
# columns merged, which may move node counts, limit bounds and incumbent
# points (the table above), never these.
OUTCOME_GOLDEN = {
    ('bucklin', 'delete-candidates', 'constructive'): (
        "8483074c46e380249cc36da4b07ef2570491999b582461b4e3f5dca22eca85ab"
    ),
    ('bucklin', 'delete-candidates', 'destructive'): (
        "ec63a435e6df14a030e280499d650f1416021775e05e5647afb693cbe868370b"
    ),
    ('bucklin', 'delete-voters', 'constructive'): (
        "a3d8424bcc48546dd28ef1c06b354b6bb092b857c8594f2cbf40b15f6276fc29"
    ),
    ('bucklin', 'delete-voters', 'destructive'): (
        "f1297467b9c4ab2f84f969ceab977bdeced24511a4d02182301d5b4d0243beb2"
    ),
    ('condorcet', 'delete-voters', 'constructive'): (
        "eccf68994498b6339ebd9c0e3a8108b570de79aa2574eb7058cdc19f70fd9858"
    ),
    ('condorcet', 'delete-voters', 'destructive'): (
        "83155dccd0dfa7ef1ca8c05e7dea3af35a0ad71148bda3fc31b55873b570bd87"
    ),
    ('maximin', 'delete-voters', 'constructive'): (
        "4c69060b4ad25fb87efe0c17faac857075c75a97d245b6088fbc668fe7fa493b"
    ),
    ('maximin', 'delete-voters', 'destructive'): (
        "13c75b1e1733d768d87a17ff93d34784748a4c1ed1b88edfe5708e1776a2d147"
    ),
    ('plurality', 'delete-candidates', 'constructive'): (
        "e10da6391b6dbfe9cb8d66861b6206e300355335814bbad31573997247421f77"
    ),
    ('plurality', 'delete-candidates', 'destructive'): (
        "b999704469dc9c08e3db75c6a713afb972adccb601009776b869cabe77b14879"
    ),
    ('random-big-coefficient',): (
        "a416e507e35c640dd8695d018380e44a5219a98632554a7ac6b1ed462316d894"
    ),
    ('random-binary',): (
        "de0a4d586d90a225284b21f0a185ddf8ae6d52b169a986a6e737c7cec37d16fc"
    ),
    ('range', 'delete-voters', 'constructive'): (
        "ef9b61e32851c0faa12312c1e27870713fcb0511ce3f63c3963916b908d93da3"
    ),
    ('range', 'delete-voters', 'destructive'): (
        "5d450bc9fceab6d7f2126573e21f88840bddd454dd045f0b61f4164e145a6af4"
    ),
}


def outcome_digest(key):
    """SHA-256 over the status and objective of every program of a sweep."""
    digest = hashlib.sha256()
    for model in search_models(key):
        result = solve(model)
        digest.update(f"status={result.status};objective={result.objective!r}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "key", sorted(SOLVE_GOLDEN), ids=lambda key: "-".join(key)
)
def test_outcomes_match_golden_table(key):
    got = outcome_digest(key)
    assert got == OUTCOME_GOLDEN[key], f"an outcome on the {' '.join(key)} sweep changed"
