"""Golden outputs: to_json and to_dot of every bundled cell, pinned by digest.

The bundled programs × all six analyses × k∈{0,1}, with the intended
blowups capped by node limits (the same caps as the benchmark's
workloads).  Each cell's `to_json(r) + to_dot(r)` is hashed and compared
with the digest recorded here, so any change to what an analysis reaches,
or to how it is printed, shows up across commits and not only within one
process.

A change that alters output on purpose re-records the digests and says
why.  Regenerate with:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib

import pytest

from pdcfa.bench import BENCHMARKS, load
from pdcfa.cli import policy_for_k, run_one
from pdcfa.metrics import to_dot, to_json

KINDS = ("plain", "plain-gc", "pdcfa", "pdcfa-gc", "pdcfa-gc-approx",
         "pdcfa-widened")
CAPS = {
    ("kcfa2", "plain", 1): 10_000,
    ("kcfa3", "plain", 1): 10_000,
    ("kcfa3", "pdcfa", 1): 2_000,
}

GOLDEN = {
    ('fig1', 'plain', 0):
        'cd591b98cbc6c6cc47d89d9e873ebbaa25a6d659af34df465c021d900283ea54',
    ('fig1', 'plain-gc', 0):
        '4b173f76b4af8528627068039464ae4dbb9af04a352a4e9d670a173178026099',
    ('fig1', 'pdcfa', 0):
        '706e1171410c04a0eaa8ca8e14deedb619e6e08f82ed385a0a77ca04a00a6224',
    ('fig1', 'pdcfa-gc', 0):
        '47705d89a98052d0d143bffde6ad3e0c41d53c4583c941e8cf73dfd0dbdda2e9',
    ('fig1', 'pdcfa-gc-approx', 0):
        '50f68c859d5453af876aa6542afd8fcb209d2e12c1a759510fb4d800a981433d',
    ('fig1', 'pdcfa-widened', 0):
        '8158ae0e7645920c67c53e46a156704f32820e09947bbb3f46a3e18fb075c6c5',
    ('fig1', 'plain', 1):
        'b6e78d7a51ca3b7feb5143c12d57b5dbc9d077f20857f5bf6eece79db559045b',
    ('fig1', 'plain-gc', 1):
        '8c6ff055a0b697a970c97a9b8d8b705197db1994ad6a1ce41270a61befde1278',
    ('fig1', 'pdcfa', 1):
        '98cdc0d345ce66c1c3af4e854531c7c77b4b06fcae161d4a966d9b2e105e9c3a',
    ('fig1', 'pdcfa-gc', 1):
        '471d3602b1ad741fea84286d089ad3d70bd81bc5b0517c4e1bf0d1d80fbf6d9d',
    ('fig1', 'pdcfa-gc-approx', 1):
        '2ada777bf91c20acd46a32487db0394be92006a532950dc088076b5628cfc95a',
    ('fig1', 'pdcfa-widened', 1):
        'c14fb0ebf5bf2cb44c24a53377e51d8f578da24c36a0607c6de6315be8c3b729',
    ('mj09', 'plain', 0):
        'd8fad82e5dd565d256f4d331c09349b2006fbd3cdf7945a53ebef844cc4b6134',
    ('mj09', 'plain-gc', 0):
        '0978b00ca84c2a51cb130be2115eebbcf6091105af8aedf230021d9ecb67ed4f',
    ('mj09', 'pdcfa', 0):
        'cd2117d303a9575f08bb0eb50de230c43d1f066e7ff16de3dd94c739da35a167',
    ('mj09', 'pdcfa-gc', 0):
        'ff536789e885f6425ad4b9f07ee9192c762120b6f29a6487ef0a9f627c1d850e',
    ('mj09', 'pdcfa-gc-approx', 0):
        '8d5c8fef121acfc9486d592630115f5e50e1be6b942316ac4b725b204776b9ae',
    ('mj09', 'pdcfa-widened', 0):
        '3ccb7509c99fdddd94884c0c624bd762c5d7a9e7bac637734eabaf59b653a44d',
    ('mj09', 'plain', 1):
        '06c24baebc2998adcb7011a554a9fca0962de7073a6984d0258f328984dd1d7d',
    ('mj09', 'plain-gc', 1):
        'bbf39c5b2ab705fac5b489dd35a58534e67c6c85dba78aa6fb3840eeaf3b6691',
    ('mj09', 'pdcfa', 1):
        '7aad7db3c2d380042ee52c56c0616a9183c69c536a515ab86798812b1759c476',
    ('mj09', 'pdcfa-gc', 1):
        '63b1e84c79870ee20c839abb2b835a954c50bfc58c8b727be74c4a1cff8881c4',
    ('mj09', 'pdcfa-gc-approx', 1):
        'd4999c5f27379f816b2a2ad7a701bedc31e68fe7a67b6f1ae3864bf114d6e719',
    ('mj09', 'pdcfa-widened', 1):
        'e68dda4ee327b26ab2acbf575a2341fd9f145d86b8ec5d535a832619c4ff7719',
    ('eta', 'plain', 0):
        'dcada734f44e1ca7f4a566a0fae6adc74f8545c24d660dd98d1edf05cabd0ee5',
    ('eta', 'plain-gc', 0):
        '0216eb12345e64564f395bedca597eb45dbcb03fd1fed8b7ee63f865533401e9',
    ('eta', 'pdcfa', 0):
        '9f52a15eadf94cf45c72b168bc6b28acf2cff4d44b3b967929eac6ec77fbf9c9',
    ('eta', 'pdcfa-gc', 0):
        '98be5f7c05ca8925b58e203e99b1154e72d20b28428df4589409f70aff4d9d55',
    ('eta', 'pdcfa-gc-approx', 0):
        'cc05302cbfeadd606710dc1a9e1eb073231e3e9b340b75730349524e4380dd13',
    ('eta', 'pdcfa-widened', 0):
        '86e6674b902109c57412a8bf3d1db39504b6a4b2f7392140b697b20200ddbe74',
    ('eta', 'plain', 1):
        'dcada734f44e1ca7f4a566a0fae6adc74f8545c24d660dd98d1edf05cabd0ee5',
    ('eta', 'plain-gc', 1):
        '0216eb12345e64564f395bedca597eb45dbcb03fd1fed8b7ee63f865533401e9',
    ('eta', 'pdcfa', 1):
        '9f52a15eadf94cf45c72b168bc6b28acf2cff4d44b3b967929eac6ec77fbf9c9',
    ('eta', 'pdcfa-gc', 1):
        '98be5f7c05ca8925b58e203e99b1154e72d20b28428df4589409f70aff4d9d55',
    ('eta', 'pdcfa-gc-approx', 1):
        'cc05302cbfeadd606710dc1a9e1eb073231e3e9b340b75730349524e4380dd13',
    ('eta', 'pdcfa-widened', 1):
        '4b3e9cd1b8d348d9c6361257173eb8de5e0a2fa28631708c8bf907c6dffe5787',
    ('kcfa2', 'plain', 0):
        'f6cbae69789e4fbba160f2ba1c9bff6ab2b255a4d6e5c49daaec9191b528763b',
    ('kcfa2', 'plain-gc', 0):
        '29d8dc8517c760e4a1e01d4ed629bf00ab088c3b180370e8051d58717d5bf080',
    ('kcfa2', 'pdcfa', 0):
        '30b4d1e510f7e04f79e12f871be6e5216a8c8feb6389a87727dcb34bbeff4b39',
    ('kcfa2', 'pdcfa-gc', 0):
        '2b92c307f690c9dfab9edc390e3de9e5b3202107310c0b1664dcf9340bbf0107',
    ('kcfa2', 'pdcfa-gc-approx', 0):
        '8d5332891ed8786acd03e0b6cb1bb58de0d751df3852616c5aa12ce48def60a7',
    ('kcfa2', 'pdcfa-widened', 0):
        '144ebff11f8970097571fc8c4021263967aa64eec3e660fcf28a2f8994d58d8d',
    ('kcfa2', 'plain', 1):
        '2d0e86659cc12bd5550764a8b859659c9f70b0eadb3b1e6131f1cd69c8571745',
    ('kcfa2', 'plain-gc', 1):
        '48270883db50cde3c886034f2806265529302ae5866855ee72a943885d18289f',
    ('kcfa2', 'pdcfa', 1):
        'a4c5a21b8c93898884dff89c67ee11d6f5d1345a0cab09d14ffac0792759f90a',
    ('kcfa2', 'pdcfa-gc', 1):
        '1f7851abf60965e5bc01068c43e32d4984b9f711f80246ddd9ff2e261f2db144',
    ('kcfa2', 'pdcfa-gc-approx', 1):
        'ecfc73bc0be2bf0277a98b0df2a0cb18339b72fa62ae41f28f189a1608166c7a',
    ('kcfa2', 'pdcfa-widened', 1):
        '28be42df1b4766dd426e0565821251ba2d78f103d571bd9b6593a3dfd24bac97',
    ('kcfa3', 'plain', 0):
        '971ef980315a8191c4aa6c35d77afbbcb8675069046a34038cf4cad1425078fe',
    ('kcfa3', 'plain-gc', 0):
        'a09fdd1a2fd55fc1bb259bc83b4c5a0b61915f70ef6db1f127167f73e7729872',
    ('kcfa3', 'pdcfa', 0):
        'e929f61577f8aa2063627a9e026178569e376b1e7fc4d22891f6b32cb597c258',
    ('kcfa3', 'pdcfa-gc', 0):
        'd82835ddb731e61bb28603abed5fbb140983690c13587970f83f7acc065dad3e',
    ('kcfa3', 'pdcfa-gc-approx', 0):
        'f77b61119e52c92524296149a39d78a50e5257285ba3d53fb46df760b5c78606',
    ('kcfa3', 'pdcfa-widened', 0):
        '2e6888e9ec83b63d8186816c2210a74ed6060bf1f33d29d13a11e486b518b9cc',
    ('kcfa3', 'plain', 1):
        '001ca038d46cb98dbb200db7f9a2913191cf443e0cd55d4b3b59dd0aff6345d0',
    ('kcfa3', 'plain-gc', 1):
        '3b3a7cb63b302a1bb554f00e80f9d48f1977f6287a4a4f12284200bad0b94612',
    ('kcfa3', 'pdcfa', 1):
        '77d5df52a1cf90059671855b5cd77f8af51861b4b35693920b36f00a73137b14',
    ('kcfa3', 'pdcfa-gc', 1):
        '97b2bb8493388a6bbbe90effef3d379f3cf3b965adecee969360bc9f2aa4128e',
    ('kcfa3', 'pdcfa-gc-approx', 1):
        'e1819361d9ef4bbeb1e9251dbf70f328b016287d41644282e85c2b66d0c74c99',
    ('kcfa3', 'pdcfa-widened', 1):
        'b7d2cb5a59bf4badbe03a3bfd1eabeceba1b9142536d3e1b1fc9b2a2cd878f8c',
    ('blur', 'plain', 0):
        '231ca96039fe73e32ebb7fd6e5987b692cf64360a7a9486de8bedfe7e1024cb1',
    ('blur', 'plain-gc', 0):
        'a1f2a61f783fdb37a9b91a1c7329ba155fb4685aa41a6f125830013515557a3a',
    ('blur', 'pdcfa', 0):
        '681a6a0f78318100c15807da5ec6621195e5caa07aa4404a01fa9dd9a5de3a1c',
    ('blur', 'pdcfa-gc', 0):
        '886e9d069297090da2ca49134cdc08dfb6820b3858e0c5c3a1bc07362e8bbbfa',
    ('blur', 'pdcfa-gc-approx', 0):
        'f1502a76a32d571722732496da381f6775b64a9921f731213fe19ff4605429f9',
    ('blur', 'pdcfa-widened', 0):
        'bf3a46fefc2f980cd62630bcf03c560ff54f3142f8e1db4ee90f45c145ea35f4',
    ('blur', 'plain', 1):
        '3f414d5026ac06adc9db060eea2f33abd17967ab6d95f60ab15946f0a36b47ec',
    ('blur', 'plain-gc', 1):
        'f1895757e23b212853241448814c645b7a9ed1ad39b5bdc44d66635b987f5535',
    ('blur', 'pdcfa', 1):
        '1fe449c0b4d49bebe8239df829694dedb42471a2175b2c40ae6d2a92ca853af6',
    ('blur', 'pdcfa-gc', 1):
        'b9767c48e451624dbdcd241f57b395f176482b18100c7b2a2615cf43d12d2ff3',
    ('blur', 'pdcfa-gc-approx', 1):
        '0e35d96030c97f6fec322fb9bd4ec187d1624ab393b74b3ffbf0b0d07707017b',
    ('blur', 'pdcfa-widened', 1):
        '3eb8944b2a8a8d6415d33351e61c3f84735bdd46414e999e0d65353c9dd40f29',
    ('loop2', 'plain', 0):
        'a2e377ca0fd8f8062dbcd847141b3184934b52c95eb48ca179ab18645b36cbdd',
    ('loop2', 'plain-gc', 0):
        'e1e3c822a07257405daf5481e9a9df5b142bb28b10a912adbcf07ed7fa779ab6',
    ('loop2', 'pdcfa', 0):
        '4429b407762ecd4838fee45b97601e0621eb04c1d605b2b330b3c000ef6f46f1',
    ('loop2', 'pdcfa-gc', 0):
        '1d2c2107266969fa446459869abacf9e84586c35f545e238af6d5873ecceb81c',
    ('loop2', 'pdcfa-gc-approx', 0):
        '9fb63cad993105d4e9f4c6a47bd5a95076ea4678af5f63031f0c44340cd91f9e',
    ('loop2', 'pdcfa-widened', 0):
        '6002cebfd5c9864e1b6da410c0ab6d3fda7e5cc242f65f97f5665daf3eca1d5d',
    ('loop2', 'plain', 1):
        'cb91be497a75c0bfe6730b392acd9fa86046c304b585f43cb5e3d42627ddb09b',
    ('loop2', 'plain-gc', 1):
        '2ae6c5f0e7f679f955af48780b7af09bf965b1342e53cc9a9fd6a581d76bbf05',
    ('loop2', 'pdcfa', 1):
        '83688d1376b5605540b0a55755f9af355e7c6088311205d22360136971cbdf5e',
    ('loop2', 'pdcfa-gc', 1):
        '5477b1d6b92229e2dd9cb85273127d2ea58c41eda5e28ec0e3e03df578c1d4b7',
    ('loop2', 'pdcfa-gc-approx', 1):
        '3540d8a3d46f9926fd56757e3a8f3c1e8f2d49c20e8a20f34a6656f9684686cc',
    ('loop2', 'pdcfa-widened', 1):
        '72ab53f229436cc1ef499be591c144b90aa799c093e13ebe3b329e3131ca8128',
    ('sat', 'plain', 0):
        'f335c0f487562d3faab056ad448156199f0aff5aa9847c9f165e018b1868e35e',
    ('sat', 'plain-gc', 0):
        '613d98893bf861a3d46d35ac652cb97d055f2847b7320cb132bf49fb47d463dd',
    ('sat', 'pdcfa', 0):
        '50bb20970a0a49ddd8bc68bf40423f826956c9e444a862bc01908fbbbf8d55e6',
    ('sat', 'pdcfa-gc', 0):
        '737fe4e749b48ed8f8de27e10b6151c1b9810f23fff6d7f746ec8369d8cb0a43',
    ('sat', 'pdcfa-gc-approx', 0):
        'e77fe6d5f36824d1c3d21c5492e1b0dd35ab8f61ce41a7f97498f0be3643b6be',
    ('sat', 'pdcfa-widened', 0):
        'bc704573db3ad3151b36b2a5b855f65bfdf46bc89c6ed6415ace39d6a7849c4b',
    ('sat', 'plain', 1):
        'ba47179583bdd9157f0bef9692b67ff039af7210c35a239453cb60b7aca8cf8e',
    ('sat', 'plain-gc', 1):
        '6b4b4f32fb5ccd44c7a8405c7ac06a714660d0b36b23cc0548abb79e64db1db7',
    ('sat', 'pdcfa', 1):
        '983d93a970924a05001f04c7c03536dddaf41db54b69727f8e25321513a1393b',
    ('sat', 'pdcfa-gc', 1):
        '39f599bf539fd0642be192f194feba6d92cc661b2c707ad3f71f6c39c0e0f67d',
    ('sat', 'pdcfa-gc-approx', 1):
        '0959c30dbe9a36c4faced3a229be5311c69644192fab4ae5609c6b118a4d33e0',
    ('sat', 'pdcfa-widened', 1):
        '558658cbca887b49a06e9188a9b85b04bce44e42fc2c39d95fcaf0f3ea9d92f9',
}


def digest(name, k):
    """sha256 of to_json + to_dot, per analysis, for one program at one k."""
    e = load(name)
    out = {}
    for kind in KINDS:
        r = run_one(kind, e, policy_for_k(k),
                    node_limit=CAPS.get((name, kind, k)))
        text = to_json(r) + to_dot(r)
        out[kind] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", BENCHMARKS)
def test_outputs_match_recorded_digests(name, k):
    got = digest(name, k)
    want = {kind: GOLDEN[(name, kind, k)] for kind in KINDS}
    assert got == want


if __name__ == "__main__":
    print("GOLDEN = {")
    for b in BENCHMARKS:
        for k in (0, 1):
            for kind, h in digest(b, k).items():
                print(f"    ({b!r}, {kind!r}, {k}):\n        {h!r},")
    print("}")
