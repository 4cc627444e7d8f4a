"""Golden outputs: to_json and to_dot of every bundled cell, pinned by digest.

The bundled programs × all six analyses × k∈{0,1,2}, with the intended
blowups capped by node limits (the same caps as the benchmark's
workloads; k=2 needs none).  Each cell's `to_json(r) + to_dot(r)` is
hashed and compared with the digest recorded here, so any change to what
an analysis reaches, or to how it is printed, shows up across commits and
not only within one process.

The concrete machine is pinned the same way: one digest per program (the
bundled programs, the `fused` pool and the chains) over every
configuration of `concrete.run` and its outcome.

The `soak` test pins the programs the benchmark generates the same way:
the 32 of the `fused` pool and the three `let*` chains, under all six
analyses at k∈{0,1}, one digest per (program, k), each computed in its
own interpreter.  It is deselected by default:

    PYTHONPATH=src python -m pytest -m soak tests/test_golden.py

A change that alters output on purpose re-records the digests and says
why.  Regenerate with:

    PYTHONPATH=src python tests/test_golden.py [--soak | --traces]
"""
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from pdcfa.bench import BENCHMARKS, load, source
from pdcfa.cli import policy_for_k, run_one
from pdcfa.concrete import Clo, PrimVal, run
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
    ('fig1', 'plain', 2):
        '27c93155bc84bae26d66d2403025e6fb00c6ef7aadf0c64095a1d6945b2003ef',
    ('fig1', 'plain-gc', 2):
        '15f460744bf5e8b4d6b98d01ecedaaffcd4a9c0061683505b1330bc855157669',
    ('fig1', 'pdcfa', 2):
        '2c2a9191160093cc562226d7705c9e55f68b801df9126ced9140c8b977880d9c',
    ('fig1', 'pdcfa-gc', 2):
        '19991742d4cf4080e9eff1df53c66efe9dd4390cec5e1aab231325d48703edb4',
    ('fig1', 'pdcfa-gc-approx', 2):
        '81c17c28febd8ef1dba988c56f0134f9f0a02e545881e2e8fc766852f2f14bfc',
    ('fig1', 'pdcfa-widened', 2):
        'b45973a1867023fd6350f247be1bc52eda97d5af131e04b4e4a72e65735decfb',
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
    ('mj09', 'plain', 2):
        '282cf03588fb4ad32c89790c3f2e79e1bba25083217a60afbc8c5629dae59448',
    ('mj09', 'plain-gc', 2):
        '328a4efc9bf315936aab47188ace14a43d0d44b12313b14bf4325519f83f9530',
    ('mj09', 'pdcfa', 2):
        '67005225883bb5de45db3e1fb73c1a8aabbd270e3019bb820ba073bf98d45f4b',
    ('mj09', 'pdcfa-gc', 2):
        '041ea66eb06be8aa0104d5e4ae0e8660f183fb541e6067de576f89fb03664945',
    ('mj09', 'pdcfa-gc-approx', 2):
        '00426f0d1289a0d25fb0e33ecb7cb4fa7aefdd3da81236524edff6b0d46325d5',
    ('mj09', 'pdcfa-widened', 2):
        'dada5779f0be6c2a68288d0a91d7ccd21eb2622b2fde9c94e160cc11cecacdba',
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
    ('eta', 'plain', 2):
        'b3c71a9f7652684ce5c5c965faaa9e29397a767ef522412b2724c31633a55c94',
    ('eta', 'plain-gc', 2):
        'f518f9221eb83680f3ef01bb766c4ccf904af69cff2058c00d250e7939c88d79',
    ('eta', 'pdcfa', 2):
        'be676bb08e5e1b451cc832cd25417b9473ff4c6300cae8a7abdcc66fdcf42b40',
    ('eta', 'pdcfa-gc', 2):
        '7b793990b7a80b8b124a50e92f45fc1834c3576a399864e78e5fa6d572b689e3',
    ('eta', 'pdcfa-gc-approx', 2):
        '5fa1f29c5fc0ab86ee45baa939a0a46214e86f552d19863f659ae59e0cbdfe3d',
    ('eta', 'pdcfa-widened', 2):
        '2de76020cb6fb2e23cbc63abbb85ecfd190671a9b234f6879cf368dd19b2e796',
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
    ('kcfa2', 'plain', 2):
        'c4b78ff9188d7b914f6201a50fc6c2faa9787bfbc45061c1546e7eaaedc6f40a',
    ('kcfa2', 'plain-gc', 2):
        'f4ceec0a2ef1e322f203e6162523824b9aba558d98e7bf7ad687bf36f69ea2ce',
    ('kcfa2', 'pdcfa', 2):
        'ed1eea195253eaaf7111aaf81a290f17886bb5437f83a703bc25610fa52d5799',
    ('kcfa2', 'pdcfa-gc', 2):
        '4c907c5f4d16780776ae34ceacfde0f05b586d97074c1a94486cf949b7eb976c',
    ('kcfa2', 'pdcfa-gc-approx', 2):
        '467246f7a7e150a37f939e47de58ea4a398fe601f4069618510b9272cc1c93fa',
    ('kcfa2', 'pdcfa-widened', 2):
        'de9ea681ff313f9d67e277b949ce0821074eeddaf958a9cafc3f92d8dd140e3f',
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
    ('kcfa3', 'plain', 2):
        '3c92b87262749de864210d3132f3e9047ae9ca1843c0c63a3312daa7989d8476',
    ('kcfa3', 'plain-gc', 2):
        '39e773e18d334bc7ebef53683dfd6487d3962c7c36d7cfc1fd8e5a155d83ab62',
    ('kcfa3', 'pdcfa', 2):
        'ea5321ee9ff5dc00863f2a685a009788db2f91644faf1b499dbf434dc313bfcc',
    ('kcfa3', 'pdcfa-gc', 2):
        '4e1bfd5a2fae54f45cce1f806f21dfb69239024d261fb168599154c9838838fd',
    ('kcfa3', 'pdcfa-gc-approx', 2):
        '8c57123b560ece890ee716a71e0da85d1a69e2cdaa4ccbd136dec668ad529853',
    ('kcfa3', 'pdcfa-widened', 2):
        '1793a050900ce89c140bf198875c432bcebb807c1a46ce2287997894a7b0824a',
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
    ('blur', 'plain', 2):
        '3c0c2125e9650ad1c804979a86089bf2f3ba4aa06b68c188d0a4d50f90caaed2',
    ('blur', 'plain-gc', 2):
        'e2b4706e4457568b460a71247931f7540510dd26b91d01542a47877408c7f17f',
    ('blur', 'pdcfa', 2):
        '210e2d9c3f23dca6e226837df1385e9b31fa34eb98464d0b6f86ab92915cc7f3',
    ('blur', 'pdcfa-gc', 2):
        'f12aa988378efc0de1c58695d828c8bc931e135d879686127984ed9e1fc38957',
    ('blur', 'pdcfa-gc-approx', 2):
        '693556732d28228419a73d59ac0263d3bbdab0c229f938138b0017b6a2ce3b1b',
    ('blur', 'pdcfa-widened', 2):
        '790aa2ce5b76ca99546a7da6dfb0a88426e5c6a702796ed6419dd8be2ef2a5e0',
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
    ('loop2', 'plain', 2):
        '51c736fe91152a7e2fe9593e0fdfd166127128e67de708d9ce6084d689ca023b',
    ('loop2', 'plain-gc', 2):
        'f8978599e3488d8c08b12d55d606bf8006a25edf27229302730aa8146b222a76',
    ('loop2', 'pdcfa', 2):
        '83e2cd0c6a18a2372c13e8d25e4b451ba93eaaa0586fd2c5e65cd3ffe757e3f8',
    ('loop2', 'pdcfa-gc', 2):
        'a4ba08633fa18942270d2b074cbec5b0ef393ff1ba23559b3de0e5b87b0df344',
    ('loop2', 'pdcfa-gc-approx', 2):
        'ac9793723ef51900ffbe95745fe55b3d76d2b51b33122d8eb3398f44277db6b5',
    ('loop2', 'pdcfa-widened', 2):
        '51a20068fe06d4b04ffe3b210034d11f407fe5306398f1f7079d85fce4f9b3c6',
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
    ('sat', 'plain', 2):
        '830f65afb262d3638edfddead7327783d62d3d445109e58795d0faa9023a14fb',
    ('sat', 'plain-gc', 2):
        'a01df89d2a9dfabe97ca657d68c64084be0b7b9cf752b83d68ec1f2e63ef91ef',
    ('sat', 'pdcfa', 2):
        'f8b10a6e72954d8fee84d302f4788f170c44792a6f2d2e3fe1485a4f255df2ac',
    ('sat', 'pdcfa-gc', 2):
        '4b3834e7033a9bac5b36f32ba3def9e1a079e10759f84904cc64c97559bd18d7',
    ('sat', 'pdcfa-gc-approx', 2):
        '6d6d387217358f209804f9175f6d2bbca7e0541e9c689e4c4a969ef52fcb5a49',
    ('sat', 'pdcfa-widened', 2):
        '448e747f26fdb1ff9003ef342e7d6a5ea0e291b43cecb0ce14110526c2955b77',
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


@pytest.mark.parametrize("k", [0, 1, 2])
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


def _env(env):
    return tuple((v.name, v.id, a) for v, a in env)


def _val(v):
    if isinstance(v, Clo):
        return ("clo", v.lam.body.label, _env(v.env))
    if isinstance(v, PrimVal):
        return ("prim", v.op, tuple(map(_val, v.args)))
    return v


def _text(v, shown):
    text = shown.get(id(v))
    if text is None:
        text = shown[id(v)] = repr(_val(v))
    return text


def trace_digest(src):
    """sha256 over every configuration of src's concrete run (exp label,
    env, frames, store; a closure as its body label and env) and the
    outcome."""
    trace, outcome = run(parse_and_normalize(src))
    shown = {}  # id(value or store) -> its text; the trace keeps them alive
    h = hashlib.sha256()
    for c in trace:
        kont = tuple((f.var.name, f.var.id, f.exp.label, _env(f.env))
                     for f in c.kont)
        store = shown.get(id(c.store))
        if store is None:
            store = shown[id(c.store)] = ";".join(
                f"{a}:{_text(v, shown)}" for a, v in c.store)
        h.update(f"{(c.exp.label, _env(c.env), kont)!r}{store}".encode())
    h.update(repr(outcome[:1] + tuple(map(_val, outcome[1:]))).encode())
    return h.hexdigest()


TRACE_SOURCES = {**{b: source(b) for b in BENCHMARKS}, **SOURCES}

TRACE_GOLDEN = {
    'fig1':
        '5ea9205e3e82b44b2aadde1bff054cc6f58385b290bf7f8dc202fd4e3d149f99',
    'mj09':
        'b83efa2e44ee4bb60cae44a1281b51dd1f4e1f67f16eba0e16bd26bcd9790230',
    'eta':
        '05ced104cfc2d07a47bcca26e55938c2226462a3e6de3b293f5411d4ee2ef480',
    'kcfa2':
        'e12b9811efb640adeb28f6a04ad3ae6209caecb8ad8351c24519f89fe63146b8',
    'kcfa3':
        'd14f4b3700c52e03032d05a7e9f812e73012476970804152376bab395a7cae9b',
    'blur':
        '85b3ff0abf4900e3a1cd1baa2b93ffdb768d69d31d7bb8cd039d26bd414afd0a',
    'loop2':
        'c5d8bd7484ee28ed599ec6c4ecf772f08cc2d1956165407cddbabcc643723f99',
    'sat':
        'a46d8eb875a9853bd81881c3f092b5b5e2f9432ade325e69cd4de48e9d1d81fd',
    'fused0':
        'b8de8debda6ad71c5d1b5cd2f1aeb4fd7ae40f383c8486b5f2a6e7bff04b9c8c',
    'fused1':
        '35595a14b9eefc30e6c52e3b42555c2f01c233fe39fc45cc7e90af40c1fb4f32',
    'fused2':
        'feea53afccc8372daebd5c44264ce390b5dc097360e237345f15d23a097bf0dd',
    'fused3':
        'fef5944ad02988fafe4a4e69dfc0854101b39c4c2ab91cd736de3de4a80a05f8',
    'fused4':
        'f00acd30675bbdf4b55119a1ca8ba678fca5a16c8416658c9e6cc13c250ed2ba',
    'fused5':
        '55a0c149ac4d84e5418cc00dc6712b5ee1572617e2913ee84aa2add15887ac77',
    'fused6':
        '68a275f114f20cf138e871ab3b0e137cfb4b0970891752636744864d2aea63c7',
    'fused7':
        '280be75947dc4fb6f3bb6b7d2f654b1ad53f144e8f91d140aaf53310708620ae',
    'fused8':
        'c8fd240e18ad2c8e7f1ca098eaed39f3e6c42414047c8f4ba259c1f586f1139f',
    'fused9':
        'cea851d5f7857a816cdb8686b13e683563f153499d9af106e66ec514ebab681e',
    'fused10':
        '8983dcbffa615f3384807f511437cd0ada735e791197122fb6ac597de61ced7a',
    'fused11':
        'b116530b38b6aa0131e048acc155e187679a64a81cff6f82de8e79740a492b65',
    'fused12':
        'c6212c0ac08adbb30d097b1d1dbbfef5f6c4d937f24fbb3b4c75cf96cfad6dde',
    'fused13':
        '92989c188917532a8b1d3b69e2cdb3f068e9c8c5800f8168182e245f638e84ee',
    'fused14':
        '4cb9bd080ca984a2256de026c1f66cb41897f9a2a4434e3461f2bb2ef53c96a4',
    'fused15':
        '2ba5e6b217948e7c6f9882fb21db5c4df933fab85eaf2a3b615206655b3e781d',
    'fused16':
        'ead4ff06fb45aca26fc2f1c10cf8f146a2896cb1f48d3bd0b804ef76c3bc82c2',
    'fused17':
        'f956a7bf7f45c70647d5109db82b644906d800683a30bb9698d2c04d1358032a',
    'fused18':
        'bc7cf19bf6b099e8923f3a0a6e7e45095835526ff4792be229929614cd4ff2d9',
    'fused19':
        '93b78b0d7f8dd724a9152f8123d69f69c1bbd35f3e7a631c89e92040e86717ec',
    'fused20':
        'df17a0986de70e9c3a689b5fe11d64495a37655d870e1dfcd2e7d027c301e75f',
    'fused21':
        '75c650ca0ed81687ca9fd075a7998f2877f07d6c8065a7418304187922c225d3',
    'fused22':
        'b7cc827d2676856979c002440953458c6a9db3b3fd726df3a1a8d5298cff78cc',
    'fused23':
        'd2a79a628761b25ca67aa1b95363c9c1fa1782542a53e605f65209b5ac31f07b',
    'fused24':
        'bfc3469f5e9c4aaf2ce99617905c83d34081aa055da636c6039050aee40bb884',
    'fused25':
        'f3a919499e2f138cf60702f3f60737be70cfc12f2bc76480f490fef4d92a0c93',
    'fused26':
        '761cb822cebb4625a5f85409f7d26d10a4a285ccc165cf7040cf490dc21ac8e3',
    'fused27':
        'e512d380c6d81860d589de02f8993c66e91d98d6c0bf48191905135a617b3338',
    'fused28':
        'f59740d60cb26a91e23e83e1c8cea284050daf9f20f865ebdbe238a0f319cc93',
    'fused29':
        '170b218d41aead70c9f8958f57e7ccebec86bfe2dba147157bfa43c0b47433c1',
    'fused30':
        'f7ea0f76f13d50e6c38fd5c8f0b71f2bb568a1a27d8eec717ae3ac8fac5ea076',
    'fused31':
        '89f1a8c56c73be51fa1172e7080e3ead4f9d6e01b5959b4bfebd3fda4ba9bbba',
    'chain15':
        '5697bb792e783783c9c4c8e30ba44cf4ef07c37bef5b5c5b3d049cd8ab11b5f7',
    'chain30':
        'dace56fae4136da6c1183989aabd37f678258dcb8a5e468835f7eb7abb9e2927',
    'chain60':
        '4541b66aca3a43ed87e4e8df146fa2de503bc9317cd60c533dfde2014e7c0b73',
}


@pytest.mark.parametrize("name", TRACE_SOURCES)
def test_concrete_traces_match_recorded_digests(name):
    assert trace_digest(TRACE_SOURCES[name]) == TRACE_GOLDEN[name]


@pytest.mark.soak
@pytest.mark.parametrize("name, k", [(p, k) for p in SOURCES for k in (0, 1)])
def test_generated_outputs_match_recorded_digests(name, k):
    assert soak_digest(name, k) == SOAK_GOLDEN[(name, k)]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--digest"]:
        print(source_digest(sys.argv[2], int(sys.argv[3])))
        sys.exit()
    if "--traces" in sys.argv:
        print("TRACE_GOLDEN = {")
        for p, src in TRACE_SOURCES.items():
            print(f"    {p!r}:\n        {trace_digest(src)!r},")
    elif "--soak" in sys.argv:
        print("SOAK_GOLDEN = {")
        for p in SOURCES:
            for k in (0, 1):
                print(f"    ({p!r}, {k}):\n        {soak_digest(p, k)!r},")
    else:
        print("GOLDEN = {")
        for b in BENCHMARKS:
            for k in (0, 1, 2):
                for kind, h in digest(b, k).items():
                    print(f"    ({b!r}, {kind!r}, {k}):\n        {h!r},")
    print("}")
