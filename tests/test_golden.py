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
from pdcfa.abstract import Mono
from pdcfa.concrete import Clo, PrimVal
from pdcfa.metrics import to_dot, to_json
from pdcfa.syntax import parse_and_normalize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402  (the fused pool and chains the benchmark runs)
from helpers import run_abstracted  # noqa: E402

KINDS = ("plain", "plain-gc", "pdcfa", "pdcfa-gc", "pdcfa-gc-approx",
         "pdcfa-widened")
CAPS = {
    ("kcfa2", "plain", 1): 10_000,
    ("kcfa3", "plain", 1): 10_000,
    ("kcfa3", "pdcfa", 1): 2_000,
}

GOLDEN = {
    ('fig1', 'plain', 0):
        '7fb00fa9e85f6eff75ea405518659e476ad9517ba109fbc35a62797ecf7f0be9',
    ('fig1', 'plain-gc', 0):
        '3f8b444716ac2308401bd4b0d90f3e53471aea45d910d956cb4bfad20514eed6',
    ('fig1', 'pdcfa', 0):
        '706e1171410c04a0eaa8ca8e14deedb619e6e08f82ed385a0a77ca04a00a6224',
    ('fig1', 'pdcfa-gc', 0):
        '47705d89a98052d0d143bffde6ad3e0c41d53c4583c941e8cf73dfd0dbdda2e9',
    ('fig1', 'pdcfa-gc-approx', 0):
        'f3d93409b68451294ece14cbc394107f53fffd3e2a58eb54807064e5b215eba6',
    ('fig1', 'pdcfa-widened', 0):
        '8158ae0e7645920c67c53e46a156704f32820e09947bbb3f46a3e18fb075c6c5',
    ('fig1', 'plain', 1):
        'e36d6e45651cbcfb3f885ca3f5fd0c81de780136c84215ce803bc237fd7e3922',
    ('fig1', 'plain-gc', 1):
        '359de0824cd6c5db9c8644b4f547dd43ffc37a9cca98a89dd625288d844fd231',
    ('fig1', 'pdcfa', 1):
        '98cdc0d345ce66c1c3af4e854531c7c77b4b06fcae161d4a966d9b2e105e9c3a',
    ('fig1', 'pdcfa-gc', 1):
        '471d3602b1ad741fea84286d089ad3d70bd81bc5b0517c4e1bf0d1d80fbf6d9d',
    ('fig1', 'pdcfa-gc-approx', 1):
        '52792150b51c83fd3163714fb737267500f3694c6ea95250ee9c0b25a3b40ad1',
    ('fig1', 'pdcfa-widened', 1):
        'c14fb0ebf5bf2cb44c24a53377e51d8f578da24c36a0607c6de6315be8c3b729',
    ('fig1', 'plain', 2):
        'd86ec130d30d88bb3d4cd4bf34168370eb776bfa5d2801043e95ef8ad6811ad9',
    ('fig1', 'plain-gc', 2):
        'e15565bb056673358f952e606d1a153f8cf9533e4215bb06bfaf023a35a2267c',
    ('fig1', 'pdcfa', 2):
        '2c2a9191160093cc562226d7705c9e55f68b801df9126ced9140c8b977880d9c',
    ('fig1', 'pdcfa-gc', 2):
        '19991742d4cf4080e9eff1df53c66efe9dd4390cec5e1aab231325d48703edb4',
    ('fig1', 'pdcfa-gc-approx', 2):
        '34503ade26850aceea0cc75c88848e4e41b20db6bfd9d5cfbd08c3115632ddd9',
    ('fig1', 'pdcfa-widened', 2):
        'b45973a1867023fd6350f247be1bc52eda97d5af131e04b4e4a72e65735decfb',
    ('mj09', 'plain', 0):
        '6a0ec77a5e96242b8470b42079acc2a3d833c7997b2f36a326deb5e8890ede6a',
    ('mj09', 'plain-gc', 0):
        'e77f5f4e753ceae284a0d948247d3073256da59214eceb995096a4e1f3af760d',
    ('mj09', 'pdcfa', 0):
        'cd2117d303a9575f08bb0eb50de230c43d1f066e7ff16de3dd94c739da35a167',
    ('mj09', 'pdcfa-gc', 0):
        'ff536789e885f6425ad4b9f07ee9192c762120b6f29a6487ef0a9f627c1d850e',
    ('mj09', 'pdcfa-gc-approx', 0):
        '5ab73c1c663304c655686f672a75bdcf84d9dc5feef67af385b109010252686d',
    ('mj09', 'pdcfa-widened', 0):
        '3ccb7509c99fdddd94884c0c624bd762c5d7a9e7bac637734eabaf59b653a44d',
    ('mj09', 'plain', 1):
        'cf5e12567ecd5501327b5ecc58312db78fa635ca9788faf14e9c0b2d192bdda1',
    ('mj09', 'plain-gc', 1):
        '9de44759e8569877a00c52ae4d9deb32db56bd7b010eeeea8a15f5cf64617943',
    ('mj09', 'pdcfa', 1):
        '7aad7db3c2d380042ee52c56c0616a9183c69c536a515ab86798812b1759c476',
    ('mj09', 'pdcfa-gc', 1):
        '63b1e84c79870ee20c839abb2b835a954c50bfc58c8b727be74c4a1cff8881c4',
    ('mj09', 'pdcfa-gc-approx', 1):
        '344041b476286a91eb50801797671d957dfcfd7eeec489e6fcbf064e02819309',
    ('mj09', 'pdcfa-widened', 1):
        'e68dda4ee327b26ab2acbf575a2341fd9f145d86b8ec5d535a832619c4ff7719',
    ('mj09', 'plain', 2):
        'dd84da3efe885bc4952753eb2e0d1dc84444382300a7ac1b4b226fbcacba35c1',
    ('mj09', 'plain-gc', 2):
        '5e890642a13bab8452d2f269f48714620cc905c1b096e702618dfa7da2a439fe',
    ('mj09', 'pdcfa', 2):
        '67005225883bb5de45db3e1fb73c1a8aabbd270e3019bb820ba073bf98d45f4b',
    ('mj09', 'pdcfa-gc', 2):
        '041ea66eb06be8aa0104d5e4ae0e8660f183fb541e6067de576f89fb03664945',
    ('mj09', 'pdcfa-gc-approx', 2):
        '24217d78410d68ea719b70eb6662c0144062ae02bddb126268522662f024e403',
    ('mj09', 'pdcfa-widened', 2):
        'dada5779f0be6c2a68288d0a91d7ccd21eb2622b2fde9c94e160cc11cecacdba',
    ('eta', 'plain', 0):
        '65c78b422aa3ff6225fd3408660e59bc374582a914e6701d6587f0496b0984b6',
    ('eta', 'plain-gc', 0):
        '780800fda712af11ebbf27011497d90cbf213fb0be52e3abb26fc9de59c714f9',
    ('eta', 'pdcfa', 0):
        '9f52a15eadf94cf45c72b168bc6b28acf2cff4d44b3b967929eac6ec77fbf9c9',
    ('eta', 'pdcfa-gc', 0):
        '98be5f7c05ca8925b58e203e99b1154e72d20b28428df4589409f70aff4d9d55',
    ('eta', 'pdcfa-gc-approx', 0):
        '8cc907d1986f32fe17cc152d95e810ea1ce62959c66beaef5073b87c48df3d56',
    ('eta', 'pdcfa-widened', 0):
        '86e6674b902109c57412a8bf3d1db39504b6a4b2f7392140b697b20200ddbe74',
    ('eta', 'plain', 1):
        '65c78b422aa3ff6225fd3408660e59bc374582a914e6701d6587f0496b0984b6',
    ('eta', 'plain-gc', 1):
        '780800fda712af11ebbf27011497d90cbf213fb0be52e3abb26fc9de59c714f9',
    ('eta', 'pdcfa', 1):
        '9f52a15eadf94cf45c72b168bc6b28acf2cff4d44b3b967929eac6ec77fbf9c9',
    ('eta', 'pdcfa-gc', 1):
        '98be5f7c05ca8925b58e203e99b1154e72d20b28428df4589409f70aff4d9d55',
    ('eta', 'pdcfa-gc-approx', 1):
        '8cc907d1986f32fe17cc152d95e810ea1ce62959c66beaef5073b87c48df3d56',
    ('eta', 'pdcfa-widened', 1):
        '4b3e9cd1b8d348d9c6361257173eb8de5e0a2fa28631708c8bf907c6dffe5787',
    ('eta', 'plain', 2):
        '6e49602b95ff2ec1bd7187265ad1b100c97f19435e95a7736d9b60f656f72a8f',
    ('eta', 'plain-gc', 2):
        'cb789f50c76d07ba2b1987c6f6d368d6939c180e2d67ad2633bd3fbe52a29c2a',
    ('eta', 'pdcfa', 2):
        'be676bb08e5e1b451cc832cd25417b9473ff4c6300cae8a7abdcc66fdcf42b40',
    ('eta', 'pdcfa-gc', 2):
        '7b793990b7a80b8b124a50e92f45fc1834c3576a399864e78e5fa6d572b689e3',
    ('eta', 'pdcfa-gc-approx', 2):
        '9890857e5a3af1e142fa5cccce185a7d6b0f41d260f99b2432dcfaf001054a36',
    ('eta', 'pdcfa-widened', 2):
        '2de76020cb6fb2e23cbc63abbb85ecfd190671a9b234f6879cf368dd19b2e796',
    ('kcfa2', 'plain', 0):
        'a6db835aa1cf6858e9d8fee342a30201f3e23a8bc141875eba62b6a4a3c8f686',
    ('kcfa2', 'plain-gc', 0):
        '9cb8b0a63093bf65969a58a55495dffba860d92e2eb8d8d234ee82fef99c65ef',
    ('kcfa2', 'pdcfa', 0):
        '30b4d1e510f7e04f79e12f871be6e5216a8c8feb6389a87727dcb34bbeff4b39',
    ('kcfa2', 'pdcfa-gc', 0):
        '2b92c307f690c9dfab9edc390e3de9e5b3202107310c0b1664dcf9340bbf0107',
    ('kcfa2', 'pdcfa-gc-approx', 0):
        '933ca0509fa04da08e796871bd8cde02bea5125fdb95662755cd2d4676dbaccd',
    ('kcfa2', 'pdcfa-widened', 0):
        '144ebff11f8970097571fc8c4021263967aa64eec3e660fcf28a2f8994d58d8d',
    ('kcfa2', 'plain', 1):
        'a689456188ce4d0dfb153b3eebe8394018aeba38a5a61d1e8bf4649a4a14b8da',
    ('kcfa2', 'plain-gc', 1):
        '59e6db995a4abee96d7487e9989cb137e8157e68400cd61e0486cdbe610bdbb1',
    ('kcfa2', 'pdcfa', 1):
        'a4c5a21b8c93898884dff89c67ee11d6f5d1345a0cab09d14ffac0792759f90a',
    ('kcfa2', 'pdcfa-gc', 1):
        '1f7851abf60965e5bc01068c43e32d4984b9f711f80246ddd9ff2e261f2db144',
    ('kcfa2', 'pdcfa-gc-approx', 1):
        'a7f666d5f2ad8dfe88c6113e2934a98c514475ca3c512af8fe99996cdb7d3acf',
    ('kcfa2', 'pdcfa-widened', 1):
        '28be42df1b4766dd426e0565821251ba2d78f103d571bd9b6593a3dfd24bac97',
    ('kcfa2', 'plain', 2):
        '3813b6e895019a7b5fa3852a137dcdf4e456b2e68e5c5028fa56543f4ba7e4a9',
    ('kcfa2', 'plain-gc', 2):
        '505e3f5746778a432626a3b6388e67c719c0758126756b50e449789ef99d47f8',
    ('kcfa2', 'pdcfa', 2):
        'ed1eea195253eaaf7111aaf81a290f17886bb5437f83a703bc25610fa52d5799',
    ('kcfa2', 'pdcfa-gc', 2):
        '4c907c5f4d16780776ae34ceacfde0f05b586d97074c1a94486cf949b7eb976c',
    ('kcfa2', 'pdcfa-gc-approx', 2):
        'c466f3167a62eb1852eb23b90dd166c994f71a1b1b954e3dfe9c5df3cc12a48d',
    ('kcfa2', 'pdcfa-widened', 2):
        'de9ea681ff313f9d67e277b949ce0821074eeddaf958a9cafc3f92d8dd140e3f',
    ('kcfa3', 'plain', 0):
        '4c9a4e561439549a04e560ed4bd916b95d48f4537ae5483d169dc549829af97e',
    ('kcfa3', 'plain-gc', 0):
        '65bcfc02b76fcc67fa01c53792cbe53ebc7cc332b316d896c6a082773b6609fa',
    ('kcfa3', 'pdcfa', 0):
        'e929f61577f8aa2063627a9e026178569e376b1e7fc4d22891f6b32cb597c258',
    ('kcfa3', 'pdcfa-gc', 0):
        'd82835ddb731e61bb28603abed5fbb140983690c13587970f83f7acc065dad3e',
    ('kcfa3', 'pdcfa-gc-approx', 0):
        '6ac024ea610a39160d0a3bb12d28a0232e0808a1fed811607cedc91f48dd190c',
    ('kcfa3', 'pdcfa-widened', 0):
        '2e6888e9ec83b63d8186816c2210a74ed6060bf1f33d29d13a11e486b518b9cc',
    ('kcfa3', 'plain', 1):
        '19d75cbf7b9d17a17023efdf7ba828e4d532c437efec7cd3f6b0bb0d1358c2d1',
    ('kcfa3', 'plain-gc', 1):
        '7f33c2153de17f1c916d3a6719926cc0ab76a9b18ca9263e7982f511dcba3924',
    ('kcfa3', 'pdcfa', 1):
        '6bf6d7ccbb29903e0b0380549db817991de042aa0c1de42c49f76e48bfb6f075',
    ('kcfa3', 'pdcfa-gc', 1):
        '97b2bb8493388a6bbbe90effef3d379f3cf3b965adecee969360bc9f2aa4128e',
    ('kcfa3', 'pdcfa-gc-approx', 1):
        'fb582c06af0c01a7608ca466c5f20501344f81c4867a353a3468c3ea65f8826d',
    ('kcfa3', 'pdcfa-widened', 1):
        'b7d2cb5a59bf4badbe03a3bfd1eabeceba1b9142536d3e1b1fc9b2a2cd878f8c',
    ('kcfa3', 'plain', 2):
        'e88340bbcf94211deda1fc903b959f41b379aedec5d62e786ceaf42fe6599dd6',
    ('kcfa3', 'plain-gc', 2):
        '28ede123ef067ffddf7ab5eeccd5ea3b9890f4cd4defe0478faae0feb4730fad',
    ('kcfa3', 'pdcfa', 2):
        'ea5321ee9ff5dc00863f2a685a009788db2f91644faf1b499dbf434dc313bfcc',
    ('kcfa3', 'pdcfa-gc', 2):
        '4e1bfd5a2fae54f45cce1f806f21dfb69239024d261fb168599154c9838838fd',
    ('kcfa3', 'pdcfa-gc-approx', 2):
        'db8c57ef188860ec5090e9003a34e9116fe6a3f80ac2eb96d9ab87fffcf8a64b',
    ('kcfa3', 'pdcfa-widened', 2):
        '1793a050900ce89c140bf198875c432bcebb807c1a46ce2287997894a7b0824a',
    ('blur', 'plain', 0):
        'c5e5dea815140f9636f637da9ecf79f0171c591d06f4b3230386fc2af38cb9bb',
    ('blur', 'plain-gc', 0):
        'a548ec6ff3220048f63df79e8475bf41a48b7a939b10ed4ebe1d579943c71b66',
    ('blur', 'pdcfa', 0):
        '681a6a0f78318100c15807da5ec6621195e5caa07aa4404a01fa9dd9a5de3a1c',
    ('blur', 'pdcfa-gc', 0):
        '886e9d069297090da2ca49134cdc08dfb6820b3858e0c5c3a1bc07362e8bbbfa',
    ('blur', 'pdcfa-gc-approx', 0):
        '6ae0c0912477dcafdf4c1c20eaac1f27bda059eb2c5398dd6ec4084dcbd41bb6',
    ('blur', 'pdcfa-widened', 0):
        'bf3a46fefc2f980cd62630bcf03c560ff54f3142f8e1db4ee90f45c145ea35f4',
    ('blur', 'plain', 1):
        '0f165b4ba80642fb4d68d448fb2d68371ed02c611f806f03815ea2bf092a9f61',
    ('blur', 'plain-gc', 1):
        '08fde8f6c27677414e30584f76b0d1f3dc1080c60a56dd9178122e411c5e5912',
    ('blur', 'pdcfa', 1):
        '1fe449c0b4d49bebe8239df829694dedb42471a2175b2c40ae6d2a92ca853af6',
    ('blur', 'pdcfa-gc', 1):
        'b9767c48e451624dbdcd241f57b395f176482b18100c7b2a2615cf43d12d2ff3',
    ('blur', 'pdcfa-gc-approx', 1):
        '6fa5032efd6ddc0d0708fbdab8211089ef621d8a7b3c48f44efe5929c52a2e56',
    ('blur', 'pdcfa-widened', 1):
        '3eb8944b2a8a8d6415d33351e61c3f84735bdd46414e999e0d65353c9dd40f29',
    ('blur', 'plain', 2):
        '2fe0445cfa2d66012090c04a1c5713604990b5969711164ef92e195aeca486b4',
    ('blur', 'plain-gc', 2):
        'defc88b263c06a855ac375d7c543bbab636445e2f87a38a2da0794b49b9aa707',
    ('blur', 'pdcfa', 2):
        '210e2d9c3f23dca6e226837df1385e9b31fa34eb98464d0b6f86ab92915cc7f3',
    ('blur', 'pdcfa-gc', 2):
        'f12aa988378efc0de1c58695d828c8bc931e135d879686127984ed9e1fc38957',
    ('blur', 'pdcfa-gc-approx', 2):
        '858e0bd3b3e3de325d00f776af25b83fcf9d926a79be5c4516a50c5ac67af80d',
    ('blur', 'pdcfa-widened', 2):
        '790aa2ce5b76ca99546a7da6dfb0a88426e5c6a702796ed6419dd8be2ef2a5e0',
    ('loop2', 'plain', 0):
        'fb8e9d05a44c62b977616308a9417fee2b7bd50ff0a6f678a85ac0ee3d50d0d0',
    ('loop2', 'plain-gc', 0):
        'ac0caa2a8c69814ab183191ce91eeba73789dbfcb448ffc27a02e711b0a01342',
    ('loop2', 'pdcfa', 0):
        '4429b407762ecd4838fee45b97601e0621eb04c1d605b2b330b3c000ef6f46f1',
    ('loop2', 'pdcfa-gc', 0):
        '1d2c2107266969fa446459869abacf9e84586c35f545e238af6d5873ecceb81c',
    ('loop2', 'pdcfa-gc-approx', 0):
        'eac28870440005224a3d26694dde18743ea0ee7f9ee00316efd36f3b4c2c9a3a',
    ('loop2', 'pdcfa-widened', 0):
        '6002cebfd5c9864e1b6da410c0ab6d3fda7e5cc242f65f97f5665daf3eca1d5d',
    ('loop2', 'plain', 1):
        '6759f4b3cec5027f5eb92c05e450343d47b2b7ff2f84835559a386bb9b2aa46b',
    ('loop2', 'plain-gc', 1):
        '1b9a7c86e3e9c5c350bb682187d95f0b2790073169cb4003f510a9c713976cf0',
    ('loop2', 'pdcfa', 1):
        '83688d1376b5605540b0a55755f9af355e7c6088311205d22360136971cbdf5e',
    ('loop2', 'pdcfa-gc', 1):
        '5477b1d6b92229e2dd9cb85273127d2ea58c41eda5e28ec0e3e03df578c1d4b7',
    ('loop2', 'pdcfa-gc-approx', 1):
        '1893712553b2476ea110a830481520dc3b0497568ba190abae0b6458f3254dba',
    ('loop2', 'pdcfa-widened', 1):
        '72ab53f229436cc1ef499be591c144b90aa799c093e13ebe3b329e3131ca8128',
    ('loop2', 'plain', 2):
        '3fc7dd4c03664ee01a7d760de5ec675d02549e35ecb7f06fc635e5c2084163f8',
    ('loop2', 'plain-gc', 2):
        '8a46b4a97bbe6057a8a21af1f29f0161db6ac0b42744429a1f654666b6f911bf',
    ('loop2', 'pdcfa', 2):
        '83e2cd0c6a18a2372c13e8d25e4b451ba93eaaa0586fd2c5e65cd3ffe757e3f8',
    ('loop2', 'pdcfa-gc', 2):
        'a4ba08633fa18942270d2b074cbec5b0ef393ff1ba23559b3de0e5b87b0df344',
    ('loop2', 'pdcfa-gc-approx', 2):
        'e3afb668ac5312913561474417d2dc788f5e8a58b750c81bc3f297d9ed8cb200',
    ('loop2', 'pdcfa-widened', 2):
        '51a20068fe06d4b04ffe3b210034d11f407fe5306398f1f7079d85fce4f9b3c6',
    ('sat', 'plain', 0):
        '12ebf41b5fe9b25a5e521fa5d04d511b45553b3c8a291b8641c8bcd186e6b4a0',
    ('sat', 'plain-gc', 0):
        '5a79d40d32c1bfe308e89b12ee52a60215004a72f75f9b6209d996caacd3b8ae',
    ('sat', 'pdcfa', 0):
        '50bb20970a0a49ddd8bc68bf40423f826956c9e444a862bc01908fbbbf8d55e6',
    ('sat', 'pdcfa-gc', 0):
        '737fe4e749b48ed8f8de27e10b6151c1b9810f23fff6d7f746ec8369d8cb0a43',
    ('sat', 'pdcfa-gc-approx', 0):
        '8eca8daa7af97097099018f256ff85c6d4596c4abb2793267ad898dc2c79ad7b',
    ('sat', 'pdcfa-widened', 0):
        'bc704573db3ad3151b36b2a5b855f65bfdf46bc89c6ed6415ace39d6a7849c4b',
    ('sat', 'plain', 1):
        '067ae7045a14aaf9ee5a925f751a4ff5235886e02b230010b9537d031d62f597',
    ('sat', 'plain-gc', 1):
        '9fe092560758d67f12486472221d6d246884ff2dc1b0285ec608a44897f9f361',
    ('sat', 'pdcfa', 1):
        '983d93a970924a05001f04c7c03536dddaf41db54b69727f8e25321513a1393b',
    ('sat', 'pdcfa-gc', 1):
        '39f599bf539fd0642be192f194feba6d92cc661b2c707ad3f71f6c39c0e0f67d',
    ('sat', 'pdcfa-gc-approx', 1):
        'afc9cad2ca2ed6cfd406da377f5237f8e83c962985043b3a20c3d1328736967c',
    ('sat', 'pdcfa-widened', 1):
        '558658cbca887b49a06e9188a9b85b04bce44e42fc2c39d95fcaf0f3ea9d92f9',
    ('sat', 'plain', 2):
        '1888c1d8203f416b624217923e0a1ed13b7d29a6b2f54d7ad3ef30d4edf6a31f',
    ('sat', 'plain-gc', 2):
        'e58b8a7260e53d718943ea88c0dba6dc7270ab3f6531679e5d3f5f5aedc4cd5a',
    ('sat', 'pdcfa', 2):
        'f8b10a6e72954d8fee84d302f4788f170c44792a6f2d2e3fe1485a4f255df2ac',
    ('sat', 'pdcfa-gc', 2):
        '4b3834e7033a9bac5b36f32ba3def9e1a079e10759f84904cc64c97559bd18d7',
    ('sat', 'pdcfa-gc-approx', 2):
        '51afb7783766760013e9cc9e360ae206ed1567e5597ab4e4da7da3dd0f00a262',
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
        '8edb4558a291cac0687b70a31ab7cf1ff98870b17df57063df77f6f0a3a4431a',
    ('fused0', 1):
        '64e7efae57943d0a0ef295eb5b6ae34368984e54f1d788ac0502f0f15a3592fb',
    ('fused1', 0):
        '3936d9a1337952df169f97f9a3ad792d6615b3282889d2b991de91dc2be2c19f',
    ('fused1', 1):
        '01514d7e9627a7625ea79f1a015c11770265321f383cd0db7ab9343d6034d0a3',
    ('fused2', 0):
        '6e398470e486e1508513b037b99d727cc1e9a25c39b8202e9a142cd4a89e4e50',
    ('fused2', 1):
        '53c399740f624697a86f83ec930bae979e6a1b994ccd43b4244232ec25042cd8',
    ('fused3', 0):
        '63d84c6fa67509a1a44c5efddcc89f8292dbcbabb87f44c84b48e8fd64ca5744',
    ('fused3', 1):
        '3803106bc6b9782e937857438ed8527fd4e0ffc1913b14a0a08c565c99d8544b',
    ('fused4', 0):
        'ff7e3cb7dff99b434e13a8b9a1d8b5469080e9ecbda838edf57b9ad243d5872e',
    ('fused4', 1):
        '8dd55a1eef623ece62f057464d79ffb2b4e340b29f305cf7c839c40943875663',
    ('fused5', 0):
        '7f2b33daa53800ce251eff67c71837256a083d02953f1d59d26f19d762eb3cc7',
    ('fused5', 1):
        '9c24328999da07669974887e1e73cf624e6ad7c7eb8b25a326f4f67f78f23f25',
    ('fused6', 0):
        '8f1cf0699eed4adfdec002864a3d3ca84d9e9b6aec30909a3f5cb7e931cc54fe',
    ('fused6', 1):
        '26f32830290fb9aeb58379a1ea5becad0e38378e75bd1417f2ccab69833df922',
    ('fused7', 0):
        '2135e4c8cbc79bceb102b20712fc912ad7cc98e29915eed458bda1b9d4303449',
    ('fused7', 1):
        '8cd5bc0d11c3a4b5c9177968511b4fccd64cf33f88197769e03fbdd49eb46289',
    ('fused8', 0):
        '6b049b2b05671ad4592eaff3ee8f3d7ca188983611bf47edcd5be3d5abeacea5',
    ('fused8', 1):
        '3c1011bf3b07ff79ca99b4855995bd6673e007fe15e5654260f71e8b17e06d21',
    ('fused9', 0):
        '4cf5286e7104ca7ad6d3cc1ddd6ec40502b4fbb2c9b56dc703574d10be78a1f5',
    ('fused9', 1):
        '45f2b8a3b6451cd3c5d7bbd9162a446a69a09d6cb72a8a28333e00e9912aa3ff',
    ('fused10', 0):
        '148e111057aa50234ae69915f8fe139120db8ca97f775b8f0782638e6da37652',
    ('fused10', 1):
        '21faa26cdbe71128e891d15f65939882f69267ad275c36b60c4a6e13cd886e46',
    ('fused11', 0):
        '21861be4c7a2b89cdcdd32dbeee1775f55b18e0c63f41a1064162bcd6be6997a',
    ('fused11', 1):
        'b1f095be8d7e9d249c0f5a1070df6b7df7229ffb766cbff3a76fe2e51ec08532',
    ('fused12', 0):
        'ff0b31e5bebac7379764f50bfcc653c79014bb2adfc833782d2160fe164f9a1e',
    ('fused12', 1):
        '96a02c7b63108e2ed2da95dc411786e21cf5d52facc52c74b87d196b4e60bff7',
    ('fused13', 0):
        '92ce18e01b6a7dca7038b7be7b7def926b95e5493ec030b06d45d249f3cc2b2b',
    ('fused13', 1):
        'e9e753e862cef9854ee64ae7d3d73bfc781899eafce0abba2306812cf4d96370',
    ('fused14', 0):
        '8eddf42a1706d4bba6776b603577e55b570e5e39daa3c5f722a16808f854d019',
    ('fused14', 1):
        'f9007d7c4b3e8864c34ac75e2cc8e65cabaf7d6eb377b051eaf52b33a31b1d2d',
    ('fused15', 0):
        '8b232d663bb0e040b313a92c46de5ad425bfd825656e82c74c20adfd869ad139',
    ('fused15', 1):
        '7656261bec8d6a10634c5de3b20b0fe9137807b0d4dfb7798eb04f643543f71b',
    ('fused16', 0):
        '6dc54721417989bc214da3a70ab869f9c93dc16139f5cbb5916908b08a86b3b0',
    ('fused16', 1):
        'e54ef7d68998238fc454ef327fb76bc2f4b97f4221ba28e6493d2aa3497dd26c',
    ('fused17', 0):
        'de52e7e7c1fe3b098cfea6cb3ea70281a2c01bb130d03043d6d9e6614d2aa994',
    ('fused17', 1):
        '049f08d038b0ab91d1e54cb162eff1a6c6baeef089463b6ae11eca4debf109f1',
    ('fused18', 0):
        '8455c1e17d01d56ec93bbd12f47b284e58af399dcb96492b6d8b890c291176b1',
    ('fused18', 1):
        'a0cbaf09ce89fb23a91a515a41cd443bb4152dc9661b3ca0a24924b87e381466',
    ('fused19', 0):
        'fa7d98c49eadc39b8d73b3f2b85080e4452bf2ea2b331a5212125e4870d279b4',
    ('fused19', 1):
        'efd812bf935449ea926d0b01c89d74c4e96883bc592cbb249128e3140c62dae9',
    ('fused20', 0):
        '0da29c23412d3c9df1958baa554eb11217eb229c44fa491393507e3538a91959',
    ('fused20', 1):
        '8ebc429acde833d0345c920eecfcf49d42fe74149d281f5974f702d9f2c40ed4',
    ('fused21', 0):
        '375310def1adb074822e2ebe805c0d5556c9c8289810100d181519582325d4c7',
    ('fused21', 1):
        'e72bcc2bd79a8006347d9c8c4bea271b5df2faae6461836917823ca2be314393',
    ('fused22', 0):
        'fa34f612d4ef3bb14d6a65039c58e6b7668aed8692f3afad0764afecafbc2648',
    ('fused22', 1):
        'b4e6b2ad8b803389643da6e469a08fe9cb4cddba4a183915ed567873b5a44b39',
    ('fused23', 0):
        '37518838f80ee2b569804d44d42897c07feb3e7b09627aee41a4a80f4c656aa4',
    ('fused23', 1):
        '166b373a553ac9cda944bc9fff1448fd38dd996bdb923752088e3225ba84d132',
    ('fused24', 0):
        '1195c995c572c7620cb2700e6b9cce938d954f4c2d31b98d93211b35477ad0d4',
    ('fused24', 1):
        'd4acf93e71f57264b5e373526b00c2e8a487ec99c74e2d5471f8b249ddecd521',
    ('fused25', 0):
        'e5f6aee8c4e643d6e45026e5e10ab26654f9a648674695b4553d57305fb1d10f',
    ('fused25', 1):
        '155e54d8ea018ebb17deb1cfb5625803727f89dd99dac1a8bf318465b007ccf7',
    ('fused26', 0):
        'f6e6e0b283106fe7ac9ed2410ef409b2f7d1e12f558382be83ab3390de328a83',
    ('fused26', 1):
        '818a1fbf71d2f3dbc12740b38ea3e123eab566eebe706584c7b638b6c7d78803',
    ('fused27', 0):
        'db4b0e66b30e1eb2d5622d98524de465f9b2e9db62a9a700216f8a43c98c0e6f',
    ('fused27', 1):
        '0356ae115c7d0c1b44c82c102884e4126c513707e67e7feb0bfcf783ff49e9b3',
    ('fused28', 0):
        '2c25997a28de14a66a7d01d96b2eb9702202964b0648125eb9f7f8fb75fb75b1',
    ('fused28', 1):
        '3d391cae4d3fdb5aa1127aa173333e8e6789b4dde26ee2d550f5680a2856c84d',
    ('fused29', 0):
        '5c92d0a7eca8e95fc8ea7d94280f5dd56ea3afeb6870335e0d820cca5c4eb6b2',
    ('fused29', 1):
        '3ee10d20f545e624e025b9bf525a22a14355b1ab1f81a5c94d0d34ed9afa45b4',
    ('fused30', 0):
        'f2f5e17130808fff39dfb61302e64bcfea823998dc293f42ca61cf95e97570f9',
    ('fused30', 1):
        '59cee6841f27de8e519a94e807449c991d5c77a983add2aede891eecc7183848',
    ('fused31', 0):
        '6327c6a3f7d9728a1900147a098a35f5e1b049554074205a01f6443b4fe31d4e',
    ('fused31', 1):
        '9d098f073c0bda3cb80f5274a08597673fe0efb9c01c966960ad2e527c742ba7',
    ('chain15', 0):
        'da72cae4b03047e24c7aed1ec4511e20bd959276b2121d05a85b9da949970abb',
    ('chain15', 1):
        '2ba68c2d0800e941449d93adb00e45a4386b4d552cd480b453ccff8694d01505',
    ('chain30', 0):
        'd91bc690636b10539de242aecfd8327c068e1dbbcd556b533ed33f07f56b3e5c',
    ('chain30', 1):
        '79b73266f23b8ffd65a9e84b9098e0b836ed79c437092fc5f57f84013c988eb0',
    ('chain60', 0):
        'a3e472013c005903bfd591ee9b4b490d383fa80b4b3b23d139076a1b05a851a0',
    ('chain60', 1):
        '8d2d4f5678ad20bfd323061c90f1289bf9c6bc1dae2a8a4679cb32e2a89fd983',
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
    trace, outcome = run_abstracted(parse_and_normalize(src), Mono())[:2]
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
