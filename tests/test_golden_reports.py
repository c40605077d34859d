"""Golden report hashes: the sha256 of ``to_bytes()`` for every property
and every separation search at two small configurations.

A change that is meant to leave verdicts, certificates and report bytes
alone must leave these hashes alone.  Never regenerate them to make a
change pass; a differing hash means the report changed.  ``P3`` is both
a property and a search, and ``search_counterexample("P3")`` returns
``run_property("P3")``, so one hash covers both.
"""

import hashlib

import pytest

from scaletop.verifier import (
    PROPERTY_IDS,
    SEARCH_IDS,
    SweepConfig,
    run_property,
    search_counterexample,
)

CONFIGS = {
    "n2": SweepConfig(max_points=2, scale_budget=4, sample_budget=200),
    "n3": SweepConfig(
        max_points=3, scale_budget=2, map_budget=3, sample_budget=150, seed=1
    ),
}

GOLDEN = {
    'n2': {
        'P1A': '8fe4498d1546e797e41458f7eef6d4630973ba09ffd166c6fd54c551a36f5aa6',
        'P1B': 'ea23ca12853baca0ae624e4a17d17dc5bcbe03e2b632fca21e4e3f7e7c3269b8',
        'C1': '0b1c6816ad19cb4669bba78eb0075cba28d94647a78698096ab54dfa7a93473c',
        'L1': '6165a8cb27bdbdeb1f6ea295d5f525af017cdda1f602f3e9ab5c5e7c9634c4e4',
        'L2': '5ab3b83f8dec3ec55205da88fca5f7db1d8f4061a52d0a9f112e6a47c3aec686',
        'L3': '1cf27700c389b625082b031d6f5dd4b9594188108d37f03f52f08883e4470946',
        'L4': '73fcd63def1228301584b119d4a3a7e3669f0f8e5f8c728cdbe847660e3b2445',
        'L5': '0e0489d0b7b58d6542c8944a0958a3ec2b234a27543da87e1d2e85245005f1f7',
        'L6': '0a610aaf16edeaf75190a49f496c3efd385f995c32e5be12ce4caf5f80e6b200',
        'P2': '511476f0bf56f5c80ff25dc4bd51b4b9fd8b937600b2d968286d7b9c62d9ad46',
        'P3': '186a766cc47c43eb46e780e38f63f6decbc7be68d0bef4dfa8e27a70e8e5af9f',
        'P4': '1287e78d910867b83a9cfac6917a9faf74d6f6db22a8420ba5c2cea3839317ff',
        'P5': '61243efffb2bc260581b92e042827ab1c6dc685208b0d8e5bf6d5d34608f8043',
        'P6': '5d2f02d0b258dae030c2a35eb4db76c352ed2807d621e0d73eb2569b7873140d',
        'P7A': 'd762fac9ab026434376843f585a766ee6073507280ed270095cec87f116990c7',
        'P7B': '6028abed330acab5e7fceeb6f25193f3be0b3c276e52cc77721d17c2c0cd6a5d',
        'P8A': '059b4bd25047b021d63dcd692593292c78714e3e15fd239abe315218911afe23',
        'P8B': '59ed18cc855092829e5ead28f1815429482881f48ffdd9c2f2a601c31cad8865',
        'P9': '86aeab88dfb81a0154a18466cd8e2e723da6b8dbf5420b134204380501703473',
        'T1': '8019f26de34660c5ebbcfcd266f64ac647ca5c3b4bd158b77f10f8ced446edb4',
        'T2': 'b27cccb2029d752db1283ac9459e24976d225283c2f8c0d2281ff70edb929cfc',
        'T3': '1bbd904f043a9c7ca8632f0c97e771b9d7a76837e9a18849ac08e65a1924e6e6',
        'T5': '4eba9b6c351704cb93b27e90d1c9314fce3f09a1a5312c7da6a74269762824ad',
        'T6': 'b67430275e9afd20f295eb1283e3fccea589444ef1da9a3f466ba0a65a7d4a58',
        'C10': '73c31f89ac62a47423173d72be84e6799bd1f58f97689f7b5b9e244cb37e0e20',
        'C14': '499e89264422c66996f0d034df1fdcff8df2f712ab9aa689d46c2c6e679afba2',
        'C15': '45c4e9abeea0f4b188c0068bad210cfb07b2c78a659fd02342519ca45413c301',
        'C16': '8f31ad207c1dd4e8e3d98ded6c0f5c61fb2c0cfcf6d33b76017af5488873c70f',
        'C17': 'ec8d7bd2da41afcae448daef60aa0a0f8408d246eae1e4de5ce1361a6a69c12f',
        'EX16': '42cd320b2e759eec8d98abb60219bbb9091b171f0904e0a60a6c88a8072586ba',
        'BQOA_CLAIM': 'b8252f0c9c475e9b27bb6bd09db796e94f6cc3011e21f8e8a3fa88fbd26750e6',
        'PROBLEM1': 'dc13b44f4975007a259970e1c65fde517077466e37f035cf506ef3068d62aff4',
        'PROBLEM2': 'd9a9ace969ff7f3f531a0d951fa3105c88f1af53a5ba940f8085a0444b0c3d21',
        'PROBLEM3': '6f55d2bdd0f056dd66931d5d715b7fbb2317b1a2f594e83d89c0bcf229258346',
        'PROBLEM4': 'fdfe18f644fb4485f9b0f080a3b1ffb6a410ef5d2d7a244dc5f7ac986fc08414',
    },
    'n3': {
        'P1A': '0c49fd5e96c26299a7f352f91b4932f51c22bce8ca5d0d8792863838f3b4eb30',
        'P1B': 'c26bdbc1b48054f00b38f4a087fd07e204e9f54616f40f849e625016126257e8',
        'C1': 'b17ba8756623d963562f995530b7973bd45e8060528a7a3a419fd645d0936b39',
        'L1': '50f020108ba60e6debb076ef0ea14c070e2cfcd95a25d9d3b387a519471b3316',
        'L2': 'dd36614e002ef5a2faa798a131316c856e32e0e5f8373370e01f22f660348984',
        'L3': '94ed9f29d402939c0a0f2b77bfbd654662ef4ce0b34eba8e59b08bed9993ef3e',
        'L4': 'f7c01daeb77c979b2b597a30e51f87fac79ffc59ff4e428b90c9ca6ba6f38006',
        'L5': 'ce348804b78a6a50c9bab3667db961b2210cd228f483141b9b56538354fd9af2',
        'L6': '95458a8230f2104c6fc1a88a83325d1bf0592dbf73d3abe9abcbdd5aba8c260d',
        'P2': '9f982b277c844848e96129db50466ab9293da3eb8dad6feb1872217750c592da',
        'P3': '0aeb11bd7e84d9ea05a81312fb87bb44e3dd1e492aa685a564af570baffab86f',
        'P4': '47bd2ab18c21ca1e40aa375559b371165e638061981638fbecf81bdd00b438dd',
        'P5': '3c5e21f2c63543715fa4a47c9cd2b0d74f3042fb2a72332780c85709cf63e1be',
        'P6': '2f3a870a40bb02a3542d0ce0f641428bee5d91153662c371822db8d132b29543',
        'P7A': '14dacffdb4a9e841d42c2fff7368567ec104e638b7426224e3ecfecb33e8f2ca',
        'P7B': '7c0ae8ba2b39f3ad197cac2d6ffa0ba9594a2e65b9c4668d27288b42aea49ecb',
        'P8A': '45306cf50d507796307b977c9b8277d8817f0083ca04dbb3b888092932df8aea',
        'P8B': '92799586ca4fa3e6fb00f6c1ce299c6e53d03874052cc21c1fe019433ed385d3',
        'P9': 'd437b250747acceb829928e2f8c65c88a2a5a85fd97b7ce9fdcbc3eede271c88',
        'T1': '6cbfef6bc2e5b6245906029d24409454317485899c1f1ee004ee19f25b377a28',
        'T2': '6d9986e2745186f8306e65a201436cd542a6784879ca40fdb56ee921be99bbb8',
        'T3': 'b8ad2a58c27eb89bd32bd44764223c46674b12e1d4441bee972f3d6950de96b6',
        'T5': 'f6133b68d7ae3d48b83c6f68e9385e3badce8f1519d6fe3db8405e1bad384336',
        'T6': '4cde01eb681c3b22e995c819c5858aeae3efcc13a7085b6bd62866aecf915bca',
        'C10': '506557520509a4600f2988a98b8a495157624c3396a27cc9f335c767c4f74fbf',
        'C14': '16add9512d5c191ce9d0e11011ef9d0cdfdc79eb58b23c83c990f070f6105a83',
        'C15': 'e9f3664eb8b78e9f1e8746924a7d421f51aadb092c98ec4e615cfa9af9ca3945',
        'C16': 'afe0e25cb85bc7dc7e2e40db3c57ab1aca2b727edf817370dc3f396de79f4df7',
        'C17': 'a951731674c926726bba093b60274ba47389861679981d9a97a0e2dd785da203',
        'EX16': 'f2468c94d401197728f101034bbd22b11e1b1e47c7b053988e857d36114628a4',
        'BQOA_CLAIM': '693ff56fdb6ccd807810cb37abd2fddc1b12fd9915db1ebd37eaf40621ba9ca8',
        'PROBLEM1': 'd28ea26dc65ba66d31fdf4fdc949c8c266615874790956b4f0dcd2c26c1ca6df',
        'PROBLEM2': '55bc9a64488fbb44e9fb04130cada2f3fa7b8bb6ef6c48fa6f5dcd92c5dfa2c2',
        'PROBLEM3': 'cc1ad369735d5df27a637db576ae772988096d783193d148b2dc1d9c41c70db2',
        'PROBLEM4': '3573021af29eb26c6372b43207a24ff5474db7edd4387a806ad1d3ff0de57ff6',
    },
}


def _digest(report) -> str:
    return hashlib.sha256(report.to_bytes()).hexdigest()


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("property_id", PROPERTY_IDS)
def test_property_report_bytes_are_pinned(config, property_id):
    report = run_property(property_id, CONFIGS[config])
    assert _digest(report) == GOLDEN[config][property_id]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("claim", SEARCH_IDS)
def test_search_report_bytes_are_pinned(config, claim):
    report = search_counterexample(claim, CONFIGS[config])
    assert _digest(report) == GOLDEN[config][claim]


def test_every_id_is_pinned():
    for table in GOLDEN.values():
        assert set(table) == set(PROPERTY_IDS) | set(SEARCH_IDS)
