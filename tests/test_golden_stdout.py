"""Byte-identical stdout of the symbolic commands, pinned by sha256.

Each case writes a document with ``catalog`` (so the generator's random
draws are pinned too) and runs the commands on it.  A change to term
storage, arithmetic, printing or generation that alters a single byte of
stdout fails here.
"""

import hashlib
import json

import pytest

from cliffbundle import cli

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
}


def _stdout(capsys, argv):
    code = cli.main(argv)
    assert code == 0, argv
    return capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_matches_pinned_hash(case, tmp_path, capsys):
    tag, field, seed = case.split()
    argv = ["catalog", "--type", tag, "--seed", seed]
    text = _stdout(capsys, argv + (["--rational"] if field == "Q" else []))
    got = {"catalog": hashlib.sha256(text.encode()).hexdigest()}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(json.loads(text)["payload"]), encoding="utf-8")
    for command in GOLDEN[case]:
        if command != "catalog":
            text = _stdout(capsys, [command, str(path)])
            got[command] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GOLDEN[case]
