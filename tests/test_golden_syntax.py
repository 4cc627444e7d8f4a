"""Golden front end: every normalized program pinned by one digest.

`print_anf` shows each binder's name and id.  Labels and let-bound callee
flags do not print, yet the analyses key on both, so the digest also
covers every node's label and every call's flag, in a pre-order walk of
this file's own.  Programs: the 8 bundled ones, the 32 of the `fused`
pool and the `let*` chains of the `chain` workload.

A change that alters the front end's output on purpose re-records the
digests and says why.  Regenerate with:

    PYTHONPATH=src python tests/test_golden_syntax.py
"""
import hashlib
import sys
from pathlib import Path

import pytest

from pdcfa.bench import BENCHMARKS, source
from pdcfa.syntax import (Ret, TailCall, Let1, If, Lam, parse_and_normalize,
                          print_anf)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the fused pool and chains the benchmark runs)

GOLDEN = {
    'fig1':
        'c435c7e85c18b49b96dd9776641dc965cd26f7b109aab2fbe334bd47aeea21b1',
    'mj09':
        '3ea1e8a99542f5ac9386b62815969795db1e3d507443e296bcf66ecabcb55f6f',
    'eta':
        'a180a1d33360e60c4dade34d7f9f730698ce8ec7c68723834573ba0c09bf2bbd',
    'kcfa2':
        '9b7bd7a974523db71796cc00256f9c55f59b37465c76f14edbc25c357e079d4d',
    'kcfa3':
        '43d997fa4b6217d47a8f14ed1370825ddeb0266c1cb11155f6d5170494e4c1ff',
    'blur':
        'af1d5e48d5e59aa95ff1057486ffa38150d01ade28cd5a48f1de079b33a17d72',
    'loop2':
        '23d3ac4189661f09af1bccd6eebc6f3aa36594212d6d2ef3e4c83e45ee72d29b',
    'sat':
        'c2ac5a091ab79633a43064825e33e83fa624e2e3032db99b928691555ab7490f',
    'fused0':
        '06dd22a8df36697fafc9cd9e81c34d1f96a7df3aa0f336f8d7757b8cbebf3c40',
    'fused1':
        'e6142cefdec78d4164bb4806bb685305607287986bb6667c4d61ce8ac990e25b',
    'fused2':
        '466938df8b50002cbec04c66e1237a30b3574529f0dc94371181752e183b7616',
    'fused3':
        '9bb3b9d5e43d02568be67351cda26e77d63cd6adbc1e9d05a29f829635bf5456',
    'fused4':
        'c589a5df6f10ed95fe4bb790da94f12b53c9536e834aaf02c462eb8702383904',
    'fused5':
        'e57118926bd3e102f95f3d0c21842b801e58a7aa23203598bbd2e27e916f9ab0',
    'fused6':
        'be2b7a246e178ba2fa4631294db2b239624cdca341f69a8fcc021c4c79b66101',
    'fused7':
        'be9af1c6086b677f446cec497d41d2822da1eff78117ce74848bd56d2c03ed0b',
    'fused8':
        '8779acc2b6501000dbda781c9605b2a6a90bd75ac240e735430974c449b0c77b',
    'fused9':
        '17f89461028382963763d22994a39fd0e48cec8138364bff4bbf0623b514548f',
    'fused10':
        '3aba25f2028286f201ec154c46e65e0b0aac4fdebb05bac1a6f6053a26fd49f2',
    'fused11':
        '6995725741e085062d4be081ead6e8601caa9b05a070a93a14f9d7b2d0ed2081',
    'fused12':
        'cc422c725d9906fc9ab6e595cdf2762cab37a67e881960072a58d1285d75e95e',
    'fused13':
        '3c4eace8cd702b758d2f086aa8e761c71845922abcb533578a8184b22865246b',
    'fused14':
        '3ab728e46ac179d10bebc21af37db44686ca437bf1ef6d4304dff26c7cd86e52',
    'fused15':
        'e4ca43f7a2149e55fe7a74f1da92bae29bbb056ec5cf051b95b92db5b389f9bd',
    'fused16':
        '29f833c4991babfd3a99b6bff9c248dc6e1192823d4b8e906069b77a731d3ff4',
    'fused17':
        '9584a04c2aef0af94a7802c725c07f56380836e7015a682ab83b6d73b1c377a5',
    'fused18':
        '5fbc67446992e3a9b330b9ba5f028fcf2b1b283849f37013785a7e37f00b372a',
    'fused19':
        '300d41891e0377b911bac430ce8d7494a2bc4a6676c4d6aa0f4268a1c704b013',
    'fused20':
        '5ee869e0ba596f53ad3e9a4bad3cae57471d2750ad0aea5934eac517e42a01bf',
    'fused21':
        'e4dae0fdd000cee15ada6bb95d05f39a8cdcfa5f2e4ac4873a76adff4220a444',
    'fused22':
        '773bdddc18971b74db9eda9bc5f9a30969d43b5a7305d1611b380c8361b5a505',
    'fused23':
        'b62ebdab7088f66ca60e323f96e440ccd1e6f90d93453cb6721368ca85396be7',
    'fused24':
        '5374e1d27044178f40f662525604525183da1ae135c8d5bda09ad4c171e561f3',
    'fused25':
        '0fd3504b258355fd536c2b23fdad1edda1f1708c800b808d7dc5e3cc462df14c',
    'fused26':
        'fa4331f54a24f3a8c30d9fea590390a9aab3b7691079853349521f2fa769232f',
    'fused27':
        '556bbf586dc30ce129669d68565088b1631064281b5447bda9fd2e3c8d094fe1',
    'fused28':
        '31035c43926ce62fe0736d56d8b419003ea4e9d2a71ffd0b00c2131303d112d9',
    'fused29':
        '4670949e0c0e2b6e80329590afc2d900b484f00d8c2d39627f3f7109c9f47d38',
    'fused30':
        '65f3497479f148da9b0169a621cd6ee927dd5fe70b254d2443b67bdd8fc6f50c',
    'fused31':
        'e6d2433ca67dc5e0428da9304a2bfebe93129a739223e783ca6e26268994f6d4',
    'chain15':
        '5741b386d36a62d9888d7f60ce651277a1b777ef6716d11289e390b0aeb12e19',
    'chain30':
        'e6fab15ac0b0b94374546cf5ac4babcc8a80b2ac864b7ecc5b3b4470855e6cd5',
    'chain60':
        '4be4f6edca72e2e83b15e626ce96cb2d59a00bc41df9ecc735467ca2dc3d6fd8',
}


def programs():
    out = {b.name: source(b.name) for b in BENCHMARKS}
    out.update((f"fused{i}", workloads.fused_source(i))
               for i in range(workloads.FUSED_POOL))
    out.update((f"chain{n}", workloads.chain_source(n))
               for n in workloads.CHAIN_NS)
    return out


def marks(e):
    """Each node's label, and after each call its let_bound_callee flag,
    in pre-order."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Lam):
            stack.append(x.lam.body)
            continue
        if not isinstance(x, (Ret, TailCall, Let1, If)):
            continue
        out.append(x.label)
        if isinstance(x, Ret):
            stack.append(x.atom)
        elif isinstance(x, TailCall):
            out.append(x.call.let_bound_callee)
            stack += (x.call.arg, x.call.fun)
        elif isinstance(x, Let1):
            stack += (x.body, x.rhs)
        else:
            stack += (x.els, x.then, x.cond)
    return out


def digest(text):
    e = parse_and_normalize(text)
    doc = print_anf(e) + "\n" + repr(marks(e))
    return hashlib.sha256(doc.encode()).hexdigest()


PROGRAMS = programs()


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_front_end_matches_recorded_digest(name):
    assert digest(PROGRAMS[name]) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, text in PROGRAMS.items():
        print(f"    {name!r}:\n        {digest(text)!r},")
    print("}")
