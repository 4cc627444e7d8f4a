"""Golden outputs: to_json and to_dot of every bundled cell, pinned by digest.

The bundled programs × all six analyses × k∈{0,1}, with the intended
blowups capped by node limits (the same caps as the benchmark's
workloads).  Each cell's `to_json(r) + to_dot(r)` is hashed and compared
with the digest recorded here, so any change to what an analysis reaches,
or to how it is printed, shows up across commits and not only within one
process.

The `soak` test pins the programs the benchmark generates the same way:
the 32 of the `fused` pool and the three `let*` chains, under all six
analyses at k∈{0,1}, one digest per (program, k), each computed in its
own interpreter.  It is deselected by default:

    PYTHONPATH=src python -m pytest -m soak tests/test_golden.py

A change that alters output on purpose re-records the digests and says
why.  Regenerate with:

    PYTHONPATH=src python tests/test_golden.py [--soak]
"""
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from pdcfa.bench import BENCHMARKS, load
from pdcfa.cli import policy_for_k, run_one
from pdcfa.metrics import to_dot, to_json
from pdcfa.syntax import parse_and_normalize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the fused pool and chains the benchmark runs)

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
        'ac4c8c8a1d24cff4437a430e27073f31b52cfeed5828a86c466a88e23f71aa11',
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
        '72af4dc544ae099b3463f73752353c194d51dc9e431d2637659a71ee41548924',
    ('kcfa3', 'plain-gc', 1):
        '3b3a7cb63b302a1bb554f00e80f9d48f1977f6287a4a4f12284200bad0b94612',
    ('kcfa3', 'pdcfa', 1):
        '6bf6d7ccbb29903e0b0380549db817991de042aa0c1de42c49f76e48bfb6f075',
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


SOURCES = {**{f"fused{i}": workloads.fused_source(i)
              for i in range(workloads.FUSED_POOL)},
           **{f"chain{n}": workloads.chain_source(n)
              for n in workloads.CHAIN_NS}}

SOAK_GOLDEN = {
    ('fused0', 0):
        'e263b928eabdc9d9199246197878b583d76f242ab8ca8901870a89c9a7cdcebc',
    ('fused0', 1):
        '028cf0b4e7f1724e3d257c2986f6a00ea644a717267d4e50055a54efce2b234a',
    ('fused1', 0):
        '4575635f8658b869be7f51ed744c4a6005ed79fe5e6c7948bb825b6f08f9d2f0',
    ('fused1', 1):
        '669cbc827130129f5feabe8da59b2acaa58133e9c88ed84d872ddc4a1001c7fe',
    ('fused2', 0):
        'e36d8b3ed7dd28346a9548c3722c3e282532a6ba19fd0272270e482164d32ddc',
    ('fused2', 1):
        'e878910c126ddee8f2ea258f22b8f2013a3047a4c8fe8d395d201de764874c12',
    ('fused3', 0):
        '53411f40a62c0e0116118619f4a449c5860fbbdbb78b66bcdefa06bfdc44a08d',
    ('fused3', 1):
        'ed63e756b37da71bc9b32630a4d086fc89852a41a4db92521fa460e73dd4e6b0',
    ('fused4', 0):
        '3255f028bc1af952f42129a7eb7e2ff15a5706311949588452df6b59f292e727',
    ('fused4', 1):
        'e087fe45aa736b4795463fd348d04a453b0febdf7e2e7395f94e2559e0962278',
    ('fused5', 0):
        'de06c3386e113f90e2460a2d2b8f658d7b48cc979f271f8fde4fccfb5c2e72a5',
    ('fused5', 1):
        '475b7cd62c992b5437fa2ab24917934d6b072095b7bde4a190a06dd7ac023723',
    ('fused6', 0):
        'dc3b7c1c90abb4ac10e8f059ac2077221f0b67478c51948583e7e02b11dd8a15',
    ('fused6', 1):
        '6d0704eb84b1b7ebb83221d9c2e9f8a5c1c23890b74f356da10763f673ce18ce',
    ('fused7', 0):
        '5593577312f6452a4de71befc9c0e0ccb6b4f303e432f491e6052062e404a90c',
    ('fused7', 1):
        'dfa42172edeaf82b9e27568b39d83bca7c1117502afa7a66425ed705b688acf7',
    ('fused8', 0):
        '95d11ab9dc44f485bfbb8d662c7bab56313fbd20e604b891943f4dedb7885bdc',
    ('fused8', 1):
        '495a8a4c6a059c7d3175b2a55e8aabbf3c7beb78124f1121fd02557daba9eee8',
    ('fused9', 0):
        '6b2c5f7ecd6bbddf45a1485dfc970218c703a6613ce397c418933796a2fbae2e',
    ('fused9', 1):
        'a93a328a3fc09da46d8f21ae656d1f3df88605374afcee26229ad7cb90a5ffcb',
    ('fused10', 0):
        'a3bca685448dfbf861c42de8702d970563ad76925597e5c413b670c830ef4d70',
    ('fused10', 1):
        'f2e7cd3eeb067f4af6dd2877b4d965c9fc2006690883a40e99da918fb2d020d0',
    ('fused11', 0):
        '2d87a3e059e08ed6e67710eaf46ce29bb0b5b4334f100b99ba3fd6019b8f52ef',
    ('fused11', 1):
        '3a3e8536f58b975c38e41e0e437b89fd6c7591b2241c9c25bbf8497a676b97df',
    ('fused12', 0):
        '5fb640cd71ae406cb9160b1f75ae14c48cec13a21855c264f4ba54e74894dbb4',
    ('fused12', 1):
        'ba263e2795c11eb45c40be9b3f3ae7ae1eb8c940978015cfdc0aa780e877255c',
    ('fused13', 0):
        'cd608ad71dab3befe3bc163aba7a11fab42d420ea53b156654f307303596cce2',
    ('fused13', 1):
        '61a4c58d2e8aac9d305947b2ca10a9e0a63981582f66a1869c3a3b72de60b428',
    ('fused14', 0):
        '451950ba44ff7d623d813682e6d78865cdb34820ee0b91d553b4c5a32dcd64cd',
    ('fused14', 1):
        '00de38ccf188ea6fa310e1ea5bab0146efbbbb42ad6dc48917848d3f97c5a655',
    ('fused15', 0):
        'd90d291d3374a7e4e8be7c22da5aad8fb74529f1fae0adb4495acb82ec96de8c',
    ('fused15', 1):
        '373abaa4429d39372b6115a55710938d15c06eb09cdf5bb3f32278cf5b9d9c24',
    ('fused16', 0):
        'cd03f01e2be520fa4b53552840a67d394ef9404e1c7936f574d4cb0935a3fba2',
    ('fused16', 1):
        '1fea94134d268703b9d8d33ff79414fa10e7256c01ba1b34cd613917f0595b8a',
    ('fused17', 0):
        'b3e441d26035c0695f85dc2e6d2bb2bd6103d1c2a7c5ba0e2abdd221014a524f',
    ('fused17', 1):
        '26325008696ac849b850a9b75ebe6493f9dbf15fee5e9a81a88f47aab43786a1',
    ('fused18', 0):
        'f1b72e288a6d372a9ea370fb1eae552f0912d5fe547eca3e59f3b090681f2085',
    ('fused18', 1):
        'f89eb551b792a18ef802aba1bc5e5fd1add39513d94c8544129c01c8777f7338',
    ('fused19', 0):
        '54af1f6179fb41c86f7ebf5e21b5e95cb8a162388e2369cb23c4cd71107c029e',
    ('fused19', 1):
        '22ea680dfe721e1a465f46f2430052924933c8cb1250a8647203a75ecc8f0a16',
    ('fused20', 0):
        '3132fc86ba8b36357615cbbe64fb3708fbcbc3f821031e53fdf02a217a027bc1',
    ('fused20', 1):
        'dbabde07603316b3ebce8cd33f18aeecea4ac6098f5f1f23e3f6d40cfdf9b570',
    ('fused21', 0):
        'e0474746e9d9cabb18a87d5c0242a0df9e255969d328c2bf486ebac261a13cba',
    ('fused21', 1):
        'e8fcbfdc4aef2360c67eb0779f9dd1d3c8996c5b037060b0d63687851a2b7052',
    ('fused22', 0):
        'd2b64f347af60b0ef6356952d7d0c0c82091332246e531568a92349e89ed0c94',
    ('fused22', 1):
        '7133abd7297d790347901f54753473eff64cae8100005440fd6662ab89908a6b',
    ('fused23', 0):
        '0b9bc0941aafeef85cfe82711626238857801717d64cb45d9563d7d0c30651ec',
    ('fused23', 1):
        'd482797bc3c6643af77dc33bfc2281fed291757900b5dcfd04756a9daf8db75d',
    ('fused24', 0):
        '033fb8fababb986e20e058bef7a1e7063b48f7b02f7305b1beba592966325109',
    ('fused24', 1):
        'ec24df1b8bb0030004d1ef798fa1c824f496097b79cd96726ef9c6760d6a6c68',
    ('fused25', 0):
        '69662a3f90a9109a83bcb9ac6dcd8096fcf4cd19d3270cdd2b7458e25a617609',
    ('fused25', 1):
        '4c0d410b8c46de04a077fe7d3b55023537b2188df991dc0226782772dc9f333e',
    ('fused26', 0):
        '0b739d7212ba317ef45bfdde86c9cacf64c210f7b5eed2bec26b05190aa87883',
    ('fused26', 1):
        '282ca8c1a2667c34833787c92917122884b9cf56fd548bfc360eebcb89e3f9b3',
    ('fused27', 0):
        '6990f91e2a23b6b883f9834df3133cfc2ceb22d48ddd1df63f0a8218f12cdaa6',
    ('fused27', 1):
        'd9fd34e832058b8ccc5a4df6625a575c029df4e552c4a95d11da98649229522d',
    ('fused28', 0):
        'bd13ceaaee5ad3fe911bbf5df36b70943c43b273b1aaa57f9d18b1b66e095081',
    ('fused28', 1):
        '874fe1b94f3e9aeeaf110d593a2d07747c5df199e1e06d6f8a90619446788b95',
    ('fused29', 0):
        '5faa8da4784778040529dda01d1bcc17549393cc022fd2547843858f8ab651dd',
    ('fused29', 1):
        '3178d7f57d99cce454ba88abedbc17ffd7e2506acda405e30920598c734bdbf2',
    ('fused30', 0):
        '391fd54076e286bcb2e445c3eede3d484309c2de3243d27649704219b3c4cd9d',
    ('fused30', 1):
        '70fd9d67392f6641869dadb95db9d7e0de31195e32d4ce6aaa3cb33481f38afa',
    ('fused31', 0):
        '84158e5625a748c73aee1a01ac7845377c408d1de2111bec7716cbf7ef978f29',
    ('fused31', 1):
        '13485f8fa333275625eac3e27610837c53b19ddb9451ebc8039d8bcd2407f873',
    ('chain15', 0):
        'a0f92d3245a414ea1dbfcf286307d77fb8728b6b0493c357483ed098e6852479',
    ('chain15', 1):
        'facce8bcbbb7270e1f9191b1821bcade93b650f801458b0b733339f01924e8a0',
    ('chain30', 0):
        'f80269a864d6d895bf7a79aaadcd8a2085d663bca0a6188230bcf0468beb8785',
    ('chain30', 1):
        'ae20813d81fce3e12e12729ad51e0a7cc0620e4503196945b8e3d595054449d0',
    ('chain60', 0):
        '4f6c20d42ba066ed2f0d0be4cf82b89b6494ac2436831c23cf2dc231c943b9e3',
    ('chain60', 1):
        '35f0ddf5cb8c6df3583737f44a6100e777c1ce36e8c827ad40183567ddaf246a',
}


def source_digest(name, k):
    """One sha256 over to_json + to_dot of all six analyses, in KINDS
    order, for one generated program at one k."""
    e = parse_and_normalize(SOURCES[name])
    h = hashlib.sha256()
    for kind in KINDS:
        r = run_one(kind, e, policy_for_k(k))
        h.update((to_json(r) + to_dot(r)).encode())
    return h.hexdigest()


def soak_digest(name, k):
    """source_digest in a fresh interpreter.  Interned objects live as
    long as their process: all 70 digests in one process reach 4 GB."""
    out = subprocess.run([sys.executable, __file__, "--digest", name, str(k)],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.mark.soak
@pytest.mark.parametrize("name, k", [(p, k) for p in SOURCES for k in (0, 1)])
def test_generated_outputs_match_recorded_digests(name, k):
    assert soak_digest(name, k) == SOAK_GOLDEN[(name, k)]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        print(source_digest(sys.argv[2], int(sys.argv[3])))
        sys.exit()
    if "--soak" in sys.argv:
        print("SOAK_GOLDEN = {")
        for p in SOURCES:
            for k in (0, 1):
                print(f"    ({p!r}, {k}):\n        {soak_digest(p, k)!r},")
    else:
        print("GOLDEN = {")
        for b in BENCHMARKS:
            for k in (0, 1):
                for kind, h in digest(b, k).items():
                    print(f"    ({b!r}, {kind!r}, {k}):\n        {h!r},")
    print("}")
