"""Golden front end: every normalized program pinned by one digest.

`print_anf` shows each binder's name and id.  Labels do not print, yet
the analyses key on them, so the digest also covers every node's label,
in a pre-order walk of this file's own.  Programs: the 8 bundled ones,
the 32 of the `fused` pool and the `let*` chains of the `chain` workload.

A change that alters the front end's output on purpose re-records the
digests and says why.  Regenerate with:

    PYTHONPATH=src python tests/test_golden_syntax.py
"""
import hashlib
import sys
from pathlib import Path

import pytest

from pdcfa.bench import BENCHMARKS, source
from pdcfa.syntax import (Ret, TailCall, Let1, If, Lambda,
                          parse_and_normalize, print_anf)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the fused pool and chains the benchmark runs)

GOLDEN = {
    'fig1':
        'b8307477993f6047d9184a0afd902944db846823bc70e6c802a09d0c0b82a07c',
    'mj09':
        '823aea41b947fa8c92f9802294b3c1b0777495840605f304006ed98cfd4dd799',
    'eta':
        '39ba044cd23203e5cd1d61c71e39b7e5061bda541cf51fecd7e5d9a5b8a8b290',
    'kcfa2':
        'c9728d11eef57fecd035ec89d91eccb831af2c92b55edb59fecc375f110d13ac',
    'kcfa3':
        '4a2018a6c4941d10778ae789315e5fc055f93c9db671f231a187413f84078835',
    'blur':
        '3ce00caeb789f0df26e0263d75aa872a7f7afee01c403b6e56f34454fc47b8f1',
    'loop2':
        '38f65fea0af8fb83152c80f041c4d1546806f9ac6b58668d0ab29609d778f1a9',
    'sat':
        '978b7bdca09e64e3dadbe263f23456781d6b3e2b50c616646cb58e6e29916135',
    'fused0':
        'f4053027a46128946787b57e15b5901f2e078b2d82f9af3659817d0d50b6eb0a',
    'fused1':
        '173c45ddbd1d4dc30f80d4ff685aee3e62bcff41f9b8c28ef12c69d9dd61320c',
    'fused2':
        'be3212b5ba61cfbdd480bfc3fbe48174ab7ce273cc96eceb0d5a1dc25577fb2c',
    'fused3':
        '1f445efc66754fee9b3cdb6f55ca04d01e1867825c4d8d9e5a261e72354539a4',
    'fused4':
        'e432ae38dab873502a8f1f60d316c708e7d696ab13f55c8a9422424b66468f8d',
    'fused5':
        '6835d9e8f3f1dd36861fa0aa0be4558af2040e1ea268fdcfb91592e68bfae29e',
    'fused6':
        '488dfdff34bebcdfc24c5284f0850f8f6693e69134e4121a331e0b1d8e5895d5',
    'fused7':
        '42762a9927627e27fe09d305e84caafbcd28e5272a734795579e69bccf29afcf',
    'fused8':
        '0ea8250e5e1de6fd07d31897be1004041b42441b9573d31af26808e9d6af34a2',
    'fused9':
        'b9a67ba76ad2f326a6605c6da69320b6d32dc06e12143601f8170fcc0245f459',
    'fused10':
        '343ace5cb21cb883260bf1bea2ff30a3c4df66edb6dcacd57315e5a9c50beff4',
    'fused11':
        '4602de81b170654d9ec0fa4884cc8b9a845c8a083370ec96df9a2054d25ca353',
    'fused12':
        'd166efebedd5f1e2cc3d913f80f28d4c5184fa1ff694f300a5941b98fb769b6f',
    'fused13':
        'e32a6c19d7004d4efa45677717954a5830ed7ed0d3d2aee496df081fee38ac6b',
    'fused14':
        'd11c59e5ec7a9dd6b7e63565556208a618b3316bd03ff775f1b572478458b07a',
    'fused15':
        '33dba166f3f3fce91c9f9989f85708a3825d15eb3e1b705d1fd81024b6667f63',
    'fused16':
        '23de08f868177d5cff49aa4edc9b137a9265d94a837d1a6b4f44f6d0f2bbea7f',
    'fused17':
        '71b7da5146604c591195b6410cdb57e02aa6fc0f30da1e8d60970774a58f215a',
    'fused18':
        '4c8ab0e647318792c8f8b16a5a7d237c3f926757ef253d66810f206dbbaecf01',
    'fused19':
        'a2e2a9adfd39d23d6e2dc700d2b722354a12cbb60e99d6ce604ba06cef751500',
    'fused20':
        '0f62eceb062c9994b2415dc84da58d0a345b59c4534e18cb8c32f6274d96e086',
    'fused21':
        '25a80f922e24fba3a1a6a92bebda1a5c727b0c62e8f1433d0573e5ab8016012d',
    'fused22':
        '932e234686bc8063d5dc5c7a042f291262992078379e32e76f8972fc4afd8c12',
    'fused23':
        'b8151841e4839a4a7118c0a7340772c30e56cfee9ee0a96177399110e8ee8b1d',
    'fused24':
        'ad87564d37bc294654cc5f7a2ba7dbea1dd57f953884c8d7bdd24e5ee45703ea',
    'fused25':
        'ce420468d83ebd21fba18e5aba04e283f9bd0bdea1590dc1ba4c1676d3e0e8b1',
    'fused26':
        '701ab64789ed5ec708f894f95bdcdef3fb479f7dd791d2c40401d473466f09f6',
    'fused27':
        '9ed9d7489ea2f97e7f34a4bc4235fbec517bf72a295223919b1b0400c30fb2d0',
    'fused28':
        '08c199f38793a76283309ae161f521b92822149e9c474888aee06cdd8775b4f7',
    'fused29':
        'f3e3744cdcbaaef3b4c649b2074940219036f33bc2040ed4fe2cf224fdad198d',
    'fused30':
        '37fd68d52863f7ce22c83b406fefc1b5b69f8ca158f0e927a07a7d4cf3e423b2',
    'fused31':
        'b3034cbec74e5bcf0ab479aec94f554dafbbbdc272da6aab9df65be88645e145',
    'chain15':
        '1fcd75b986f458db294d502c0adb7ae9d883deef5226e81e30429ace04df9940',
    'chain30':
        'f13b085ff8a21826f5859b2fc479a56821ed02274ccb06588e6f80760c40f1fa',
    'chain60':
        'b35e09c2abe692c55402c99d57d1b18c9f6de3529f607bf39eeb598fb54a60a2',
}


def programs():
    out = {b: source(b) for b in BENCHMARKS}
    out.update((f"fused{i}", workloads.fused_source(i))
               for i in range(workloads.FUSED_POOL))
    out.update((f"chain{n}", workloads.chain_source(n))
               for n in workloads.CHAIN_NS)
    return out


def marks(e):
    """Each node's label, in pre-order."""
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Lambda):
            stack.append(x.body)
            continue
        if not isinstance(x, (Ret, TailCall, Let1, If)):
            continue
        out.append(x.label)
        if isinstance(x, Ret):
            stack.append(x.atom)
        elif isinstance(x, TailCall):
            stack += (x.arg, x.fun)
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
