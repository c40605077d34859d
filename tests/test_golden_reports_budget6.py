"""Golden report hashes at a third configuration: the sha256 of
``to_bytes()`` for every property and separation search.

Its scale budget (6) exceeds four, so P8A's cap on the domain scales it
unites with, ``min(scale_budget, 4)``, differs from the budget here; at
the two configurations of ``test_golden_reports`` the budget is at most
four and a sweep that dropped the cap would pass.  As there, a differing
hash means the report changed: never regenerate these to make a change
pass.
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

CONFIG = SweepConfig(
    max_points=2, scale_budget=6, sample_budget=300, seed=2, max_violations=2
)

GOLDEN = {
    'P1A': '6e733a12b66977d6da7b84592809c0f8dab5753238dd2e8b0152c7272d1d369b',
    'P1B': 'dbd3107cdd6269f80cd4f7d8e9965ee8cd0a3b74fababd96433343d14e1494fb',
    'C1': '2a12e8cc6f2318e81051a76e6b04fe945c65f8d2521f5e2f72bd79fe370112cb',
    'L1': '0e138ce144af1211d16fceb38fbd054ea99ea19b7fe1bab7d03f5d8ab03b7a98',
    'L2': 'e1c4f366900a31abe808aef63da1b98a6d04060e4f1d491e9102f44a6ef26472',
    'L3': '336a9fb18c0afed256c64f8ec7bd7b7c6c76872f9ba5741b2e13355b84d45ef8',
    'L4': 'bab44f24b1cc8e415e99b07a7fa86d6f283eff8eb11299e99dd89b1ce2f83214',
    'L5': '39baad0199eae91439a0d56863f37517c3779cfa259ac6eb3b55b7bc90dcc836',
    'L6': 'f004cc27857bc6811cbe30d902a2bacac4295da1223d873fbc2a948168bd5400',
    'P2': '105b4253be8eed0674e102c1c7ba5728bfd25860120120c1425762e3a99b57f7',
    'P3': 'f1e5e72da07e597774c35d6bed3ad718bb13d0e363dd5231f71dd884473fd9af',
    'P4': '7d37ce617ad48c9cd324dc0948c266197135f8e50c815509ecc4c475298ee0e5',
    'P5': '45332a9f2e73913963eb0a47db06abcdf4a7e3fa4b5b726e356dee704cfc8773',
    'P6': '760436c9a90ac6e5009b2d0a62214ece4fb9498e3d3db1aa0ac5450923f68dae',
    'P7A': '343961d62082876ade11adbd4795393531f25a2f24cc0249f17dcf0aaa2fb6c4',
    'P7B': 'a10a10ac24274dd23369a7a34044401e29e98679057e72d818b337788d68fad7',
    'P8A': '4b334d7f9d1fb28924b170f84d55489566336cade40d1ad2b5becb1fadd8e940',
    'P8B': '931a86359ae405040fc5237ee0aa64b0d9d0e620905ba7af5a6dd77219f63fd3',
    'P9': '176067715f92b7561a2f0c3570a128b52bcf4c3d250a50bb7cae9a824eea77c7',
    'T1': '52b930a8837112b46028d05300528d0ff0e2af704f3199c0042b8754c975d22b',
    'T2': '1deecd0f8928d81b3b519b65cc4b5118a38c8fa745697298881118ca2e03ab74',
    'T3': 'c83884cddc0075aa80428b81fb152072cb442e4b5c688cf497460a1752b474eb',
    'T5': '40c76051a1e094882b263791307606af282ff2ba72c3ca60e45b9a533668b915',
    'T6': '717410e0d0440caef54346a1080f5e6efe75bdd2aa0dadb961275e9d607dae73',
    'C10': 'b933b6edd046d6974b1765e465f7a95dd25fcfeeb5109b7df81180315ea026e8',
    'C14': '953e92d3a22238876c2ed5dbfa8908657cb29a7ed28951dacbaef3ce9ec6a8b8',
    'C15': '5c4733fad8b758eeb2bc33e42e2ab1507f64d9d11aa8dd8e2870c824e2ea8ffc',
    'C16': 'ec15da45dadb62431d80fe7f5ef0c2a58baf89ee9dd1db31e3143dfc30215f0a',
    'C17': '6d47b55ea1c4eec6d682f42cd27fd00e4cbcd203f2ed4d0babce4f5e1325118e',
    'EX16': '3de61fc3f25fd407edfd9053bcc457b31f45bfdb7cbb5c464905a684619ea5eb',
    'BQOA_CLAIM': '2afa1b31e97c7c703cf6e6eb14aef0a90c3cca51fb3e736fc63d6d46a856e9b9',
    'PROBLEM1': '6995e7da887925a3aac089c04280eeaff2445ba6e4c52c1964f07e7270696fdf',
    'PROBLEM2': 'fed3503c7a0a80c8488bec33b233e3f9543100e03246233872d83ec006f1ca69',
    'PROBLEM3': '22b0e1c15575b385b3f9047dc47ed02e564d370c7d51f52805d8efc94467dcf2',
    'PROBLEM4': '3c736f3f19e76610de9dd0fad1c410a5050abc75af53b08f92d7aa4e52151155',
}


def _digest(report) -> str:
    return hashlib.sha256(report.to_bytes()).hexdigest()


@pytest.mark.parametrize("property_id", PROPERTY_IDS)
def test_property_report_bytes_are_pinned(property_id):
    assert _digest(run_property(property_id, CONFIG)) == GOLDEN[property_id]


@pytest.mark.parametrize("claim", SEARCH_IDS)
def test_search_report_bytes_are_pinned(claim):
    assert _digest(search_counterexample(claim, CONFIG)) == GOLDEN[claim]


def test_every_id_is_pinned():
    assert set(GOLDEN) == set(PROPERTY_IDS) | set(SEARCH_IDS)
