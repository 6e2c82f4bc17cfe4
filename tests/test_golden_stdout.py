"""Byte-identical stdout of the symbolic, point and scan commands, pinned by sha256.

Each case writes a document with ``catalog`` (so the generator's random
draws are pinned too) and runs the commands on it.  A change to term
storage, arithmetic, printing or generation that alters a single byte of
stdout fails here.
"""

import hashlib
import json

import pytest

from cliffbundle import QQ, PolyRing, cli
from conftest import unlimited_text

GOLDEN = {
    'F23 F101 0': {
        'catalog':
            '50ccd31ac17c76f0993fcd3c25ae29c3618ca2fcbaaead7a1552aa878b0d8791',
        'recover':
            '4454709fd7664f3b5f89f7449f7007d8d584ac7d85e52d481b0bc66de6cb2490',
        'bsv-verify':
            'e2e565c2342672e28f362042f577a21f69c0df63eb4111d3cfc0cb8724fb2298',
        'trace-pairing':
            '8d910d87060728ec2fcbbb927949107a7ea7885adb779bd4d7505017e3f68a00',
        'disc':
            '028870562926dfdccea96adc614d0a20bd66d995db8e8aa9c815224cfa78754a',
    },
    'F23 Q 0': {
        'catalog':
            'b75c365c62634edc08bed43c3710d57b9f420bd3bad21139324157f4a50fa48a',
        'recover':
            '9a0c3405bc70b998382d2f85758edeb0f4bbeeeefb80b3f39f4855a525659223',
        'bsv-verify':
            '1f583cf3b4d9adbd2b1711f0910dcc014bd1a47aa1858c7aebd572bb7234e7d5',
        'trace-pairing':
            '1a3e40985ab70ee1ad9561d7ee98c4a853d67bb578548f6cfdb050a975ca4952',
        'disc':
            '22c120948e680f2a054bd510021a897083f6c8a9916138cc158065f3b946ec3b',
    },
    'F24 F101 0': {
        'catalog':
            '8c3f958f9e694b6e8d17148e1bc2ba5f7b53fb908aca5a8cde8fb4b456e16115',
        'recover':
            '9b623c467e24952ba8d735746a22b53fefc01497700cfae8ca0cd796fe7f8e38',
        'bsv-verify':
            '26c5cc0db19b54748f19e54ac47850607e8fcc2c4799778e785897b36f146eb6',
        'trace-pairing':
            '4a9e6a2e52c4cbaf2b242c58430ecfaa8d6ae61f629ca01d1a5703990fb6cee0',
        'disc':
            '477c941576155f003cee6c7247b76af1475bce1d2300845f593d3dff73c21c49',
    },
    'F24 Q 0': {
        'catalog':
            'dcc4c09a6a5f3de1171c8c43b458365d00ae403ddc70ca19ed1744a7e0e18df8',
        'recover':
            'ca74d1e3b4a078b24a9dc8743337f24b5693549f2394f938a65f0f3ad7ac2214',
        'bsv-verify':
            'c8a4e98a840526c0224cbffd69870db468349f810ecafb5536b9d85853a162cb',
        'trace-pairing':
            '3ec9262a6f60f66b84cf11f81255f8d18591238b1b3a6cd78bc8b47648d6585a',
        'disc':
            'c622f6a010d07ca4c5993df4fc1bb9d62b8e44c5fdfd0a3c860e120c94704482',
    },
    'F25minus F101 0': {
        'catalog':
            'd653191644c0d7aa532f941412995de252d30e568e02a49a49472ce528f4106c',
        'recover':
            '7522f76ef4844c88c79ba4b5d153d2cb69f57ce02acd469e5e60a186c801cc56',
        'bsv-verify':
            '81294cb4ec518a5338a4a2a3e2df5e30b2223640358109c6a8dfe0fe644131a9',
        'trace-pairing':
            'de813f94285a2b63d54094d207a2bf7bbf7a402bf77d8fc1a7b6ecc389f30268',
        'disc':
            'b47c02594664dbdd07e1b8dad02e4c03d353cb458f1f1f84fc8deee4a304c7c0',
    },
    'F25minus Q 0': {
        'catalog':
            'c43fe4fe8ca277dd824d788674c2aa97f3f65ca1188b904dd0c40fd06000e0e7',
        'recover':
            'f003c1f3fc3def147d5689061d2b6a8ef2ff81bc0881a6901a73c450921bfb1e',
        'bsv-verify':
            '4d057e5c95edb99320cb82b0d53394426573268703412dddb1fde3fc8c80a568',
        'trace-pairing':
            'feb6af1d13961a5926e9efcd6b51a06b026065742c5de8fab946934b179a1642',
        'disc':
            '2171066f182c43702da8aca35fdbdd4f0dde155b6ac0c0ad27adb948fedd2a22',
    },
    'F25plus F101 0': {
        'catalog':
            '4b10037d047f3dc6d6bf2aa0c6fa5fc504f3ff9823e813afb2376d74dac6c965',
        'validate':
            '167c0dd4231eaee22cbca78a3c283a571e0294b1a1778a7c00c0290446955406',
    },
    'F25plus Q 0': {
        'catalog':
            '85c489bda8a17fbd82f3d186d92de3ad310d554335b8951c53258f2daac73e23',
        'validate':
            '167c0dd4231eaee22cbca78a3c283a571e0294b1a1778a7c00c0290446955406',
    },
    'F23 F101 7': {
        'catalog':
            '01b70eb1c6ab6beea567827559db59b21293beef2ac79257ffd66994f87e4ec8',
        'recover':
            'e704784d1b163d2ec3932b1d02f6de92d5c8b5636244862f7a522d6f840c39fb',
        'bsv-verify':
            '4fa19551d9b33dbe8547cfa2c65bfb7d60f438e1551d43b32cf5e13b85a63a83',
        'trace-pairing':
            '121018334f756d03e0623ebba2573f6f96be860dc163fcb0a845ee096ef23d20',
        'disc':
            'a977ad228ad5934c1c008dfce9e25b1793de181ecbefe9354fbb537104c01835',
    },
    'F23 Q 7': {
        'catalog':
            'c78c5912e8e580d7fa0dfad29ff7ab1228d4ee9c974ce8399bf829e7a7b7c4bd',
        'recover':
            'badbbe72e4936bb74e98b8b4aeb58c18ec6721fd8154d6ff83bf2a1ec8bcbfee',
        'bsv-verify':
            '6f493c2452ab86046f259d71075145aaed88eb2be4f13bc03b07a8fbd10f52ef',
        'trace-pairing':
            '623d5aa39a38e83d2ff3abd814679fe75eccbd72aa2ff95caa5b4ca8ad296eee',
        'disc':
            '306c1601a9117db075a19e7d85a511431abfb123c281eed6395de2f5bc99f728',
    },
    'F24 F101 7': {
        'catalog':
            '989b7a2d5c4ffa90ea72a33701c744f5a2f847db526c0bea6dc15b1f71a1fb81',
        'recover':
            '0787484b0988acade4d7de748278f0876d08cb61b3ba933987e34be4fe1ff041',
        'bsv-verify':
            'dcafe89823f9711d4c3add6c7d841d568f237e38cb43d7f6860d7fa7e0d28d19',
        'trace-pairing':
            '8233b4c6a6f3cca24f3415cd08f9533ab3c380ab14e1336ff61486ba7518c4fd',
        'disc':
            '5f00830ef172017c9758b398f94631e97399923c3c487e89e95e92f67b2f941d',
    },
    'F24 Q 7': {
        'catalog':
            '015b479ca3800f308fbbd3c2efae0c0df0c5efe5542defd57edfb26d395838f3',
        'recover':
            'a1f7789afed9fb35fc187d0358aba84c7459439cf01a5ba93b5ec63581a6ae33',
        'bsv-verify':
            '553ecab0d5fb589a607229ec9cf6efc55800f5304f8bd2e5b19f2b4c8f4ddc4e',
        'trace-pairing':
            '4dd054613daa7c7cf9ef0d29528239c6f2c3eb791819a0d6fe54a97e405c61fc',
        'disc':
            'e10a30e47e57a88f934faf7a1e07131b70c83867e22167bc0bbdead82545311a',
    },
    'F25minus F101 7': {
        'catalog':
            '7ef1dadfae46707d1e52b47bff28764a481e252ffa7e0f244dd9b18331d6a9f9',
        'recover':
            '35dd7aa69298e576f046bd160261b40bb7a7620bfc86ca17a1f383c29f390599',
        'bsv-verify':
            '09e67ed349bcdb7ab4cb7fb7afafe474fe24174d304a9c7013860d4e1451b401',
        'trace-pairing':
            '1bfb3a0b3578b463bcdf9da8d79b6d74a3f9157b871731ec8ef2d198522ad951',
        'disc':
            '386619c610c5813daef3a11df18885b5eb9f97342e05df48d197a6ffdb653aff',
    },
    'F25minus Q 7': {
        'catalog':
            'de5f3722bb5089a439396e7576538493c7565c813c6a34b60c0738183f3ffa33',
        'recover':
            '0cb75367a04c57f55b70a3186d0b2f62a32fed7ab818e6619908abfcb3bba183',
        'bsv-verify':
            '16f9629fbedaad2d900f5b59f720a7a277a9d1148240cf8a520abfa54469a12b',
        'trace-pairing':
            '9c9a27527bb6e74ff298dd811056e1c2fd0d6fadd6fc383dd6dfeefb333bf514',
        'disc':
            '73d5cba1d0f0fb37fa5b08b8c8709c5d56ad897dc071484e07ece2e4eca7e85b',
    },
    'F25plus F101 7': {
        'catalog':
            'c277b9f3c058677976a46e15dc808c8f1e552a92e487b8088a1b4e18db8c879a',
        'validate':
            '167c0dd4231eaee22cbca78a3c283a571e0294b1a1778a7c00c0290446955406',
    },
    'F25plus Q 7': {
        'catalog':
            '50000c1f4b156cb1f57c78808aafdb52c20430173acc4ad001b3a18d479ee313',
        'validate':
            '167c0dd4231eaee22cbca78a3c283a571e0294b1a1778a7c00c0290446955406',
    },
    # Small primes, where the coefficients 2 and 4 of the minor quotients
    # reduce (4 = 1 mod 3, 2 = -1 mod 3, 4 = -1 mod 5).
    'F23 F3 0': {
        'catalog':
            'a494f36b61c72c493517bf8850f0eec2030f6113daf871e9e686e01f27fb5fe0',
        'bsv-verify':
            'da72feef68091f9b8afa778a8c9e280b9d378737db1cbbee47b8c2be83e23ace',
    },
    'F24 F3 0': {
        'catalog':
            'b6d39f7f4c0ed2a9f54578114ceb6dcee5753f4f4cfac72a6b92fa46b9f21799',
        'bsv-verify':
            '94108261ebbb009e64cc2434055000d6ed66a399fdd211a6d7ea11bf9d90e90b',
    },
    'F25minus F3 0': {
        'catalog':
            '2aa4581608bbf9184ff053cc597220a3d2553753ad7f3b4839f8263539f9800c',
        'bsv-verify':
            '32b4d1ce3b9007b8bec57d816b96c36e52717337a21688dc799ab074412e89a8',
    },
    'F23 F5 0': {
        'catalog':
            'c4417d82eb5a1f232591ea7cef6d0be3a71c8e93ad15a3108549ad8530733e92',
        'bsv-verify':
            '624461361c298a4d83bec7022422422525d51e1ae5059646202a641d50151472',
    },
    'F24 F5 0': {
        'catalog':
            'eb3961841d893665974189f3fddf0fc3b0a582235571d54413326cc808b3c206',
        'bsv-verify':
            '930cc6ffca54c4d8abded4aa63c6152a077bfef262ca7584469e53ea43853744',
    },
    'F25minus F5 0': {
        'catalog':
            '47326a3a4a0d26654e9c69bb1b68e71da07f5e95853df1369423ea20d1713f32',
        'bsv-verify':
            'fc9ed41707c8782ccbad2f5106487dcb860d88f6d30cd1e1e747775bbbabb973',
    },
}


# ``fiber --point`` and ``classify --point`` per case and base point: 1:2:3 is
# off the discriminant curve of all four documents; 0:67:1 and 0:79:1 are
# the first points of P^2(F_101) on it for F24 and F25minus.  The Q
# documents are also read at the fractional point 1/2:-3:5/3, which
# normalizes to 3/10:-9/5:1.
POINT_GOLDEN = {
    'F23 Q 7': {
        '1/2:-3:5/3': {
            'fiber':
                'f08223f47317c2b31ded23a6d82ba717ea6a9025b578961358dfd3df8aa36729',
            'classify':
                'ad1de21222975ff8e8990f1b8ea692da3761a98e7accbc7114a6fa3ea9ebe544',
        },
    },
    'F24 F101 7': {
        '1:2:3': {
            'fiber':
                '306b579d823f73f8b580c8dca75351ad6a627a69524e03cad5dc5bb259f0e772',
            'classify':
                '894e420fe40af55bf0a7454ba8bfe90f442a03da47961861746fc78c73729566',
        },
        '0:67:1': {
            'fiber':
                '06f5630c5b5e81b14b1c3ab0a0b5cf68c630eefe8aca74b60f8b43a0656ed361',
            'classify':
                '199ebeb521b2d6589a78eb12df2afbea1c028fa05aea74b25feba63d40925e42',
        },
    },
    'F24 Q 7': {
        '1:2:3': {
            'fiber':
                '7972c9dcd312678940a301f4eebe61962b5af714a0ca54c22cd243b376ca55ae',
            'classify':
                'a7b65eb900ccff12ad0f4e3687a4c5216e7304a884be3b07dc8b5121f0b66014',
        },
        '1/2:-3:5/3': {
            'fiber':
                'f08223f47317c2b31ded23a6d82ba717ea6a9025b578961358dfd3df8aa36729',
            'classify':
                'ad1de21222975ff8e8990f1b8ea692da3761a98e7accbc7114a6fa3ea9ebe544',
        },
    },
    'F25minus F101 7': {
        '1:2:3': {
            'fiber':
                '306b579d823f73f8b580c8dca75351ad6a627a69524e03cad5dc5bb259f0e772',
            'classify':
                '894e420fe40af55bf0a7454ba8bfe90f442a03da47961861746fc78c73729566',
        },
        '0:79:1': {
            'fiber':
                '0f0f371b85c080d7b87d60a070030081a6548111dc315e2288fb537af874fae5',
            'classify':
                '8f464282b3e3bc9423df1009249ec03acaf8e15e0dc78655fa5f9073c1dbba28',
        },
    },
    'F25minus Q 7': {
        '1:2:3': {
            'fiber':
                '7972c9dcd312678940a301f4eebe61962b5af714a0ca54c22cd243b376ca55ae',
            'classify':
                'a7b65eb900ccff12ad0f4e3687a4c5216e7304a884be3b07dc8b5121f0b66014',
        },
        '1/2:-3:5/3': {
            'fiber':
                'f08223f47317c2b31ded23a6d82ba717ea6a9025b578961358dfd3df8aa36729',
            'classify':
                'ad1de21222975ff8e8990f1b8ea692da3761a98e7accbc7114a6fa3ea9ebe544',
        },
    },
}


# ``scan --prime p`` per case and prime: every catalog document of seeds 0
# and 7 at p = 101, the Q documents at p = 3, 5 and 7, and one Q document
# at p = 997, the largest prime the scan accepts.
SCAN_GOLDEN = {
    'F23 F101 0': {
        '101':
            '068bb5c167aa37fa459844f3aad8d41c96459c4bad8051ce5e91616e4619384f',
    },
    'F23 Q 0': {
        '3':
            '786a0a7967c60c143fbb2411ce23844fb1b9325a0e3468e286fcf0ff599455e6',
        '5':
            'feff2e0456cb255385d1ce0616c5ffd034d0c5453362c2a586ab78301110b1f1',
        '7':
            '17395b4eb5db3553c0c07017c55572664c39e07471028edde10b9667e6791767',
        '101':
            '9673f93a675ef8e5c22b4caf4f874ce2ee754fd2af1a93951ddbd208604c4134',
    },
    'F24 F101 0': {
        '101':
            'f84bebdac719b2ae09cf5d4a80a65b298c2a33c559fc08c1c11550e58233265e',
    },
    'F24 Q 0': {
        '3':
            '91ec2b25b5e5468fa55061ba8cefe8231d827c8d86e560fc03671d7610a87c8b',
        '5':
            '685b6e74393fadf131b2493f732656967fe1e32b3f7503932defa33dcb154087',
        '7':
            'cfe238c3ea74637758404deee0fd0cbf9271044e7937bcf270215b4b012e932c',
        '101':
            '41781659253c051a0a67aadccd0121b60b7ac1661215c2c178ca7a2519d785ba',
    },
    'F25minus F101 0': {
        '101':
            '3341add6a1f630785b2e22da1707390297238239e8c6cec9c658a36968f55c55',
    },
    'F25minus Q 0': {
        '3':
            '1c7ffaa721c7bb48e4712899af0706d22aa0de2fc2124e206a95340615f98e4a',
        '5':
            'f68c393c39c2e717e0625e646b3bc4fc5435e2cc945f8e68aac729f871f5b603',
        '7':
            '1a07d210a96ee73c1b5d1d1b8c6362173384e6c9ef2385bdd5f1584d9fbb12d4',
        '101':
            'f84bebdac719b2ae09cf5d4a80a65b298c2a33c559fc08c1c11550e58233265e',
    },
    'F23 F101 7': {
        '101':
            '9673f93a675ef8e5c22b4caf4f874ce2ee754fd2af1a93951ddbd208604c4134',
    },
    'F23 Q 7': {
        '3':
            '786a0a7967c60c143fbb2411ce23844fb1b9325a0e3468e286fcf0ff599455e6',
        '5':
            'aef64e1dea353a555008c0bd123a5ecf4e644a74a9bfb1bba63decaf571fa476',
        '7':
            'cb2de54fb27a24e408707d98b4a052b91a6f1eb6abcb87424df127f155c1ba16',
        '101':
            'd1489fe40635ab9a07328265e8f4bbf292c6f01951478abdec09b03422f0efeb',
    },
    'F24 F101 7': {
        '101':
            'ce6a8a40755ad4cbd71af77d30a98fffb34444fe2010fc9f3ae02546dca9f048',
    },
    'F24 Q 7': {
        '3':
            '63cdfc017b06de00b65e7f2416799704c6aa5323792c0465fec11137f4c4cf3c',
        '5':
            'afdf6fb4a85f647344761bb9b5ae47d0078d9fa61dc057b69542e4b25e98b139',
        '7':
            'bc05209b3e9f5bde27501d1e29f25abd42aaa47414691544fed06775bc6bfe94',
        '101':
            '72014765e692af9601f4c59ea79b159ecdbad743eec521425f6833d76b8ec3c9',
    },
    'F25minus F101 7': {
        '101':
            'b0e258a4a29378cb723e0f08191ba2c818d2b79e7d2f7806939d1cde4d78b98d',
    },
    'F25minus Q 7': {
        '3':
            '18834f28b8bb66fe0d9a08485adccb75a2efcb2618d0f2551e6b3b50bc07f2da',
        '5':
            '804887234310f3f4ffd57083819edd5a1a56161264c9a9b18524a8a0b9e7a41b',
        '7':
            'aeb606fbbeef4aa51f60de3dee6aef19c612694e735a1fd93451aeec4822716a',
        '101':
            '6e6a6dd5c41298b5fef9afff6b5d6bd23b27390ee650fe10e851f218ce0ffc07',
        '997':
            '989e7511d997afb5afdf371ad459d106f4fa445060005b05871aca2afb703f98',
    },
}

def _stdout(capsys, argv):
    code = cli.main(argv)
    assert code == 0, argv
    return capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_matches_pinned_hash(case, tmp_path, capsys):
    tag, field, seed = case.split()
    argv = ["catalog", "--type", tag, "--seed", seed]
    text = _stdout(capsys, argv + (["--rational"] if field == "Q" else
                                   ["--prime", field[1:]]))
    got = {"catalog": hashlib.sha256(text.encode()).hexdigest()}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(json.loads(text)["payload"]), encoding="utf-8")
    for command in GOLDEN[case]:
        if command != "catalog":
            text = _stdout(capsys, [command, str(path)])
            got[command] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(POINT_GOLDEN))
def test_point_stdout_matches_pinned_hash(case, tmp_path, capsys):
    tag, field, seed = case.split()
    argv = ["catalog", "--type", tag, "--seed", seed]
    text = _stdout(capsys, argv + (["--rational"] if field == "Q" else []))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(json.loads(text)["payload"]), encoding="utf-8")
    got = {}
    for point, commands in POINT_GOLDEN[case].items():
        got[point] = {}
        for command in commands:
            text = _stdout(capsys, [command, str(path), "--point", point])
            got[point][command] = hashlib.sha256(text.encode()).hexdigest()
    assert got == POINT_GOLDEN[case]


@pytest.mark.parametrize("case", sorted(SCAN_GOLDEN))
def test_scan_stdout_matches_pinned_hash(case, tmp_path, capsys):
    tag, field, seed = case.split()
    argv = ["catalog", "--type", tag, "--seed", seed]
    text = _stdout(capsys, argv + (["--rational"] if field == "Q" else []))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(json.loads(text)["payload"]), encoding="utf-8")
    got = {}
    for prime in SCAN_GOLDEN[case]:
        text = _stdout(capsys, ["scan", str(path), "--prime", prime])
        got[prime] = hashlib.sha256(text.encode()).hexdigest()
    assert got == SCAN_GOLDEN[case]


# Sparse forms, whose determinants and minors meet zero entries that the
# dense catalog documents never have: the diagonal form (u, v, w) with
# discriminant u*v*w, and catalog documents of seed 7 with the three
# off-diagonal entries set to 0.
SPARSE_GOLDEN = {
    'diag Q': {
        'disc':
            '8aeec968302df2866496f7611214704b5db33a9d484f05495a431b5bfe6bf4ec',
        'bsv-verify':
            'bb53905ec414c30fe6097870414734ae771ad5141c844561235ad0baa83cba0e',
        'trace-pairing':
            '4341cbc27d441e348ce568b2092ad9580936f5826006f503ea773143f42cc697',
        'recover':
            'eb61dc2adb32bbf82bd073c13f7bf6ac3b42838178998d59db2df9d59f8a8063',
    },
    'diag F101': {
        'disc':
            '8aeec968302df2866496f7611214704b5db33a9d484f05495a431b5bfe6bf4ec',
        'bsv-verify':
            'dcf849a126bca151579f758fc55dfa4a9a1e5fc28f4280b43c8c71e9e5d3b9df',
        'trace-pairing':
            'f2ea0fd79bfffaa5e2729eb95158734a85841cf0ebdeb0076f6c4f82a914210d',
        'recover':
            'eb61dc2adb32bbf82bd073c13f7bf6ac3b42838178998d59db2df9d59f8a8063',
    },
    'F24 Q': {
        'disc':
            'b82bd16698c94a9064da3de5ee05240816f1d954bba87d3510000880bacf198e',
        'bsv-verify':
            '20b79348c2f6a1f32c3492ed089b52a4d47f5170540d60ccbb72b3fea42358f6',
        'trace-pairing':
            '363dad0034a63b839e8752257c4ebf2f427e22ffd501856d2fd91d64b7ee13b4',
        'recover':
            'b6a147a224e39f3d9733f3717a66d38e8148f53c0a3875cb199f046649ff153c',
    },
    'F25minus F101': {
        'disc':
            'c478b19583a204228e29feffb90a8107919f0564c8c5a82b38953e48b283ac38',
        'bsv-verify':
            '472b78ebd5a4d19b98185adae6d09e4d970975d22959bf78ffc4bc023bdf922a',
        'trace-pairing':
            '15ce9e44b4bc8e5c1b01b1a7f028916d5dd1aa11ca9cd4744d913aa8effd666d',
        'recover':
            '519defce430091481186fa2dae1025ca44b964859e8c0264bc55c0ef918479be',
    },
}


def _sparse_document(capsys, case):
    kind, field = case.split()
    if kind == "diag":
        domain = "rational" if field == "Q" else {"prime": 101}
        return {"form": {"a": [0, 0, 0], "d": 1,
                         "entries": ["u", "0", "0", "v", "0", "w"]},
                "scalar_domain": domain}
    argv = ["catalog", "--type", kind, "--seed", "7"]
    text = _stdout(capsys, argv + (["--rational"] if field == "Q" else []))
    payload = json.loads(text)["payload"]
    for k in (1, 2, 4):
        payload["form"]["entries"][k] = "0"
    return payload


@pytest.mark.parametrize("case", sorted(SPARSE_GOLDEN))
def test_sparse_form_stdout_matches_pinned_hash(case, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_sparse_document(capsys, case)), encoding="utf-8")
    got = {}
    for command in SPARSE_GOLDEN[case]:
        text = _stdout(capsys, [command, str(path)])
        got[command] = hashlib.sha256(text.encode()).hexdigest()
    assert got == SPARSE_GOLDEN[case]



# ``scan --prime 7`` and ``--prime 101`` of the sparse documents and of a
# form l l^T + 3 m m^T over Q, whose discriminant is 0, so every fiber is
# degenerate.  Unlike the dense catalog documents these have DoubleLine and
# WholePlane fibers.  The F_101 documents refuse --prime 7 (exit 1); that
# report is pinned too.  Each pin is (exit code, sha256 of stdout).
RANK_TWO_DOCUMENT = {"form": {"a": [0, 0, 0], "d": 2, "entries": [
    "13*u^2 - 8*u*v - 2*u*w + 7*v^2 - 4*v*w + w^2",
    "6*u^2 + 31*u*w + 6*v^2 - 16*v*w - w^2",
    "u^2 + 14*u*v + 13*u*w - 6*v^2 - 17*v*w + 4*w^2",
    "3*u^2 + 30*u*w + 9*v^2 + 6*v*w + 76*w^2",
    "9*u*v + 10*u*w + 18*v*w + 41*w^2",
    "u^2 - 8*u*w + 12*v^2 + 36*v*w + 43*w^2"]},
    "scalar_domain": "rational"}

DEGENERATE_SCAN_GOLDEN = {
    'diag Q': {
        '7': (0,
                '1aa90a383814147da4a6d0f49104d5178c2b1936df87e535f0f56adec7095122'),
        '101': (0,
                '7e43709912c9c0cc3e7e00297b992c558fdaf1a6cc3ec3bf0fbdb7dede5ee243'),
    },
    'diag F101': {
        '7': (1,
                '31559c048126117cd705ec286b0f8c30697b73ef9d05174a030c1c2d56a0491a'),
        '101': (0,
                '7e43709912c9c0cc3e7e00297b992c558fdaf1a6cc3ec3bf0fbdb7dede5ee243'),
    },
    'F24 Q': {
        '7': (0,
                'cb2de54fb27a24e408707d98b4a052b91a6f1eb6abcb87424df127f155c1ba16'),
        '101': (0,
                '3b4331289f85ae6bf8cfc9b4015970d810a5e9a596d509e2f8a33e907647b610'),
    },
    'F25minus F101': {
        '7': (1,
                '31559c048126117cd705ec286b0f8c30697b73ef9d05174a030c1c2d56a0491a'),
        '101': (0,
                'a15b59d2ca9fdcfe5a1201f47b07087e4a4ed2a0932b84bc53172bd9e1599f80'),
    },
    'rank2 Q': {
        '7': (0,
                '8ff0886cfb54dfc798afd49374dbad05a65cf8fdf4b81ade6be0c2c6f031697b'),
        '101': (0,
                'cf6a6982c0f9ce8435f1df1fdfbd34e530ee62b0ed54f237117f2917c4a0d65d'),
    },
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_SCAN_GOLDEN))
def test_degenerate_scan_stdout_matches_pinned_hash(case, tmp_path, capsys):
    document = (RANK_TWO_DOCUMENT if case == "rank2 Q"
                else _sparse_document(capsys, case))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    got = {}
    for prime in DEGENERATE_SCAN_GOLDEN[case]:
        code = cli.main(["scan", str(path), "--prime", prime])
        text = capsys.readouterr().out
        got[prime] = (code, hashlib.sha256(text.encode()).hexdigest())
    assert got == DEGENERATE_SCAN_GOLDEN[case]

# Hand-written documents over Q whose entries have fractional and negative
# leading coefficients, so that every printed sign and denominator of the
# sums of products is pinned: patterns F23 (a = (0, 0, 0), d = 1) and F24
# (a = (0, 1, 1), d = 0).  The hashes were taken before sums of products
# were summed in one accumulator and before the printer read packed keys.
FRACTIONAL_DOCUMENTS = {
    'F23 Q': {"form": {"a": [0, 0, 0], "d": 1, "entries": [
        "-3/2*u + v - 2/7*w", "5/3*u - w", "-u + 4/9*v",
        "-7/4*v + 3*w", "2/5*u - 1/3*v + w", "-5/6*w"]},
        "scalar_domain": "rational"},
    'F24 Q': {"form": {"a": [0, 1, 1], "d": 0, "entries": [
        "-1/2", "3/4*u - v", "-w + 2/3*v",
        "-5/3*u^2 + v*w - 1/7*w^2", "-u*v + 9/2*w^2", "7/5*v^2 - 1/4*u*w"]},
        "scalar_domain": "rational"},
}

FRACTIONAL_GOLDEN = {
    'F23 Q': {
        'disc':
            'cbb35d27677d4bb35bf8a9efade3c7b375ef776408f9236b14f54724545b160e',
        'trace-pairing':
            '641e9025847db311cd28294b69ed76494b32b41219794cfcf63024affe0923d1',
        'recover':
            '6b3aaff7698b0b962c63072172ad54ba3d354694588bb1c8039e327c89ed06d9',
        'bsv-verify':
            '184fc9ed29188982844ea94d40f92337fe4eb619bf16a898b014425576bb7950',
    },
    'F24 Q': {
        'disc':
            'a721a9d96ed9d1741ca00a4501af3b917a7ec40a2c803fe988691ab71a538995',
        'trace-pairing':
            '669ac9531e0e0b33991b03c3bb240820795bd25595787562aec83324687641c3',
        'recover':
            '6d6afb3c435b0b9204cdb012763dc0066ab021a5aba93ecb8ba496ad5cc499af',
        'bsv-verify':
            'c44d2dc450922902a712562e3f19100091311aa5a01a60b65d6502eef4cb3775',
    },
}


@pytest.mark.parametrize("case", sorted(FRACTIONAL_GOLDEN))
def test_fractional_form_stdout_matches_pinned_hash(case, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(FRACTIONAL_DOCUMENTS[case]), encoding="utf-8")
    got = {}
    for command in FRACTIONAL_GOLDEN[case]:
        text = _stdout(capsys, [command, str(path)])
        got[command] = hashlib.sha256(text.encode()).hexdigest()
    assert got == FRACTIONAL_GOLDEN[case]


# A Q document whose diagonal coefficients have 1,500 digits: its
# discriminant's coefficient has 4,500, past the 4,300 digits str() writes
# by default, and disc prints it in full (it used to exit 1 with a bare
# ValueError).  The other three commands print what they printed before.
LONG = "7" * 1500
LONG_DOCUMENT = {"form": {"a": [0, 0, 0], "d": 1, "entries": [
    f"{LONG}*u", "0", "0", f"{LONG}*v", "0", f"{LONG}*w"]},
    "scalar_domain": "rational"}

LONG_GOLDEN = {
    'disc':
        '0ff2faf2c0d78370944bdd84ec9ae121c5862c564da634517de4923822435c74',
    'recover':
        '455c457973a3645f43483c3231edfbfe722f1519cf11fb9a156f58dcdf81ea4b',
    'trace-pairing':
        'c722280759c80e5504c4f3d30572cbf7e55479a51f1d874882ee417423809697',
    'bsv-verify':
        'a6b85c85419eb93eeaa67efc7f6155408ab8914b54c198b12f71bf2961bfea00',
}


def test_long_coefficient_stdout_matches_pinned_hash(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(LONG_DOCUMENT), encoding="utf-8")
    got = {}
    for command in LONG_GOLDEN:
        text = _stdout(capsys, [command, str(path)])
        got[command] = hashlib.sha256(text.encode()).hexdigest()
        if command == "disc":
            want = f"{unlimited_text(int(LONG) ** 3)}*u*v*w"
            assert json.loads(text)["payload"]["discriminant"] == want
            assert str(PolyRing(QQ).parse(want)) == want
    assert got == LONG_GOLDEN



# Report shapes the pins above leave out: ``invariants`` of every type,
# ``hilbert --order 20``, ``validate`` on a form (a net is pinned above),
# ``normalize``, and one report of each failure band, exit 1 (an
# inhomogeneous entry) and exit 2 (``recover`` on a form of rank 2).  The
# catalog documents are seed 7.  Each pin is (exit code, sha256 of stdout),
# taken before the report writer replaced ``json.dumps``.
DIAG_DOCUMENT = {"form": {"a": [0, 0, 0], "d": 1,
                          "entries": ["u", "0", "0", "v", "0", "w"]},
                 "scalar_domain": "rational"}


def _with_entry(document, k, text):
    document = json.loads(json.dumps(document))
    document["form"]["entries"][k] = text
    return document


REPORT_DOCUMENTS = {
    "inhomogeneous": _with_entry(DIAG_DOCUMENT, 0, "u + v^2"),
    "rank2": _with_entry(DIAG_DOCUMENT, 5, "0"),
}

REPORT_GOLDEN = {
    'invariants --type F23': (0,
        'c7afb3de63b3c0fc9ce59e538b803d84fe943af9a7831098fa4864738cffdfd5'),
    'invariants --type F24': (0,
        '5be2ca2a20dc216c9f10b732df9e94b12a5ad403d2470bc386b0fc1485daf701'),
    'invariants --type F25plus': (0,
        '549be182c3ec8bd743cbb95e37e898a94985bddffd986383a4218de599867bb7'),
    'invariants --type F25minus': (0,
        'ffadbcc7c6c9037aef93a782116c6bf6b59ebd50a80b3d4aca5103cdf93c5ef9'),
    'hilbert F24-Q --order 20': (0,
        '06508c6fee4b37308179a64ab221fcaada00071ce9e29674428fed10309f675e'),
    'validate F24-F101': (0,
        '0c486147869456ca279d013a447d4c4c77c92dd00105bafc109ed0bca6c3f722'),
    'normalize F25minus-Q': (0,
        '16af031921a3f1d8bff1902e70b321c58df394d70fceb60b5c92c1a60842ed30'),
    'validate inhomogeneous': (1,
        'dfb0c953a587a5d1c2c1cbb95e55f615db0b6de00373f3c7311c6ff056277116'),
    'recover rank2': (2,
        '31af856e95f05e44bc759e1015c435bb7dc07958154b9f823863d5e6dfb89cc4'),
}


def _report_document(capsys, name):
    if name in REPORT_DOCUMENTS:
        return REPORT_DOCUMENTS[name]
    tag, field = name.split("-")
    text = _stdout(capsys, ["catalog", "--type", tag, "--seed", "7"]
                   + (["--rational"] if field == "Q" else []))
    return json.loads(text)["payload"]


@pytest.mark.parametrize("case", sorted(REPORT_GOLDEN))
def test_report_stdout_matches_pinned_hash(case, tmp_path, capsys):
    argv = case.split()
    if argv[0] != "invariants":
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_report_document(capsys, argv[1])),
                        encoding="utf-8")
        argv[1] = str(path)
    code = cli.main(argv)
    text = capsys.readouterr().out
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == REPORT_GOLDEN[case]
