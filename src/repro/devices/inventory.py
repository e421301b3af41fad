"""The 93-device testbed inventory, curated from the paper.

Each row encodes one device of Table 10 (plus Appendix C/D metadata):
identity, addressing mechanics, per-network-class behaviour phases, and the
structural counts of its destination portfolio. A small reconciliation
builder distributes the remaining per-category counts (plain-IPv4 fill,
query-only names) so that the category sums equal the paper's Tables 3-9
cells by construction; `tests/devices/test_inventory.py` asserts every sum.

Where the paper's own tables disagree (they do, in a handful of cells), the
choices made here are documented in DESIGN.md §4.
"""

from __future__ import annotations

import functools
import types
import zlib
from dataclasses import dataclass
from typing import Mapping

from repro.devices.profile import Category, DeviceProfile, Phase, PortfolioSpec
from repro.net.mac import MacAddress

C = Category


def _phase(tokens: str) -> Phase:
    parts = set(tokens.split())
    unknown = parts - {"ndp", "addr", "gua", "ula", "dns6", "aaaa4", "data6", "local", "ntp"}
    if unknown:
        raise ValueError(f"unknown phase tokens: {unknown}")
    return Phase(
        ndp="ndp" in parts,
        addr="addr" in parts,
        gua="gua" in parts,
        ula="ula" in parts,
        dns_v6="dns6" in parts,
        aaaa_v4="aaaa4" in parts,
        data_v6="data6" in parts,
        local_v6="local" in parts,
        ntp_v6="ntp" in parts,
    )


@dataclass
class _Row:
    name: str
    cat: Category
    mfr: str
    platform: str = ""
    os: str = ""
    year: int = 2021
    # phases (token strings)
    v6: str = ""
    du: str | None = None
    # addressing mechanics
    iid: str = "stable"
    gua_iid: str = ""
    lla: bool = True
    gua_n: int = 1
    ula_n: int = 1
    lla_n: int = 1
    dad: bool = True
    dad_skip: tuple = ()
    d6: str = "none"            # none | stateless | stateful | both
    use_lease: bool = False
    rdnss: bool = True
    fast_rotate: bool = False
    # portfolio structure
    ess: int = 2
    essA: bool = False
    essAonly: int = 0
    t43p: int = 0
    t43f: int = 0
    t34p: int = 0
    t34f: int = 0
    v4a_class: int = 0
    steady: int = 0
    lit: int = 0
    litv4: int = 0
    third: int = 1
    support: int = 1
    trk: int = 0
    v6_third: int = 0           # steady v6 domains that are third party
    v6_support: int = 0         # steady v6 domains that are support party
    tel_third: int = 0          # query-only names that are third party
    tel_support: int = 0        # query-only names that are support party
    aonly: int = 0              # total A-only-in-IPv6 names (incl. essAonly)
    tel: int = 0                # query-only unresolved AAAA names
    img: int = 0                # AAAA resolves, data stays on IPv4
    flips: int = 0              # names AAAA'd only over IPv4 (dns6 devices)
    wf: float = 0.0             # weight for plain-IPv4 destination fill
    vol: int = 8000
    v6frac: float = 0.0
    tcp4: tuple = ()
    tcp6: tuple = ()
    udp4: tuple = ()
    udp6: tuple = ()

    @property
    def v6only_phase(self) -> Phase:
        return _phase(self.v6)

    @property
    def dual_phase(self) -> Phase:
        return _phase(self.du if self.du is not None else self.v6)

    @property
    def queries(self) -> bool:
        v6p, dup = self.v6only_phase, self.dual_phase
        return v6p.dns_v6 or dup.dns_v6 or dup.aaaa_v4

    @property
    def struct_aaaa(self) -> int:
        return (self.ess if self.queries else 0) + max(self.t43p, self.t34p) + self.t43f + self.t34f + self.steady

    @property
    def struct_resp(self) -> int:
        ess_part = self.ess if (self.queries and self.essA) else 0
        return ess_part + max(self.t43p, self.t34p) + self.t43f + self.t34f + self.steady

    @property
    def aaaa_names(self) -> int:
        return self.struct_aaaa + self.img + self.tel

    @property
    def resp_names(self) -> int:
        return self.struct_resp + self.img

    @property
    def v4only_aaaa_names(self) -> int:
        dup = self.dual_phase
        if dup.aaaa_v4 and not dup.dns_v6:
            return self.aaaa_names   # every AAAA rides the IPv4 resolver
        return self.flips

    @property
    def dest_struct(self) -> int:
        """Destination domains before fill (data-carrying names)."""
        return (
            self.ess
            + self.essAonly
            + max(self.t43p, self.t34p)
            + self.t43f
            + self.t34f
            + self.steady
            + self.lit
            + self.litv4
            + self.v4a_class
            + self.img
            + self.third
            + self.support
            + self.trk
        )

    @property
    def v6_dest(self) -> int:
        ess_part = self.ess if (self.essA and (self.v6only_phase.data_v6 or self.dual_phase.data_v6)) else 0
        return ess_part + max(self.t43p, self.t34p) + self.t43f + self.t34f + self.steady + self.lit + self.litv4


# Per-category targets (Tables 6 and 9): destination totals, distinct AAAA
# query names, answered AAAA names, A-only-in-IPv6 names, IPv4-only AAAA
# names, and IPv6 destination counts.
CATEGORY_TARGETS = {
    C.APPLIANCE: dict(dest=72, aaaa=52, resp=12, aonly=12, v4a=4, v6dest=10),
    C.CAMERA: dict(dest=269, aaaa=49, resp=26, aonly=1, v4a=39, v6dest=23),
    C.TV: dict(dest=789, aaaa=390, resp=238, aonly=16, v4a=141, v6dest=426),
    C.GATEWAY: dict(dest=96, aaaa=67, resp=5, aonly=13, v4a=22, v6dest=20),
    C.HEALTH: dict(dest=16, aaaa=0, resp=0, aonly=0, v4a=0, v6dest=0),
    C.HOME_AUTO: dict(dest=121, aaaa=8, resp=1, aonly=0, v4a=8, v6dest=0),
    C.SPEAKER: dict(dest=720, aaaa=511, resp=249, aonly=72, v4a=120, v6dest=290),
}

_NO6 = ""  # no IPv6 at all

# Common phase strings
_NDP_ONLY = "ndp"
_LLA_ONLY = "ndp addr"


def _rows() -> list[_Row]:
    r: list[_Row] = []
    add = r.append

    # ------------------------------------------------------------- Appliances
    add(_Row("Behmor Brewer", C.APPLIANCE, "Behmor", year=2017, v6=_NO6, ess=1, third=0, support=0, wf=1))
    add(_Row("Smarter IKettle", C.APPLIANCE, "Smarter", year=2017, v6=_NO6, ess=1, third=0, support=0, wf=1))
    add(_Row("GE Microwave", C.APPLIANCE, "GE", year=2018, v6=_LLA_ONLY, iid="stable", ess=1, third=0,
             support=0, wf=1, tcp4=(8080,)))
    add(_Row("Miele Dishwasher", C.APPLIANCE, "Miele", year=2021, v6=_NDP_ONLY, ess=1, third=0, support=0, wf=1))
    add(_Row(
        "Samsung Fridge", C.APPLIANCE, "Samsung/SmartThings", platform="SmartThings", os="Tizen", year=2021,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 aaaa4 data6 local",
        iid="eui64", gua_n=12, ula_n=4, lla_n=2, d6="both", use_lease=True,
        ess=2, t43p=1, t34p=2, steady=8, third=1, support=0, aonly=12, tel=38, img=2, flips=4, wf=2,
        vol=20000, v6frac=0.08, tcp4=(8080,), tcp6=(8080, 37993, 46525, 46757),
    ))
    add(_Row("Xiaomi Induction", C.APPLIANCE, "Xiaomi", year=2023, v6=_NO6, ess=1, third=0, support=0, wf=1))
    add(_Row("Xiaomi Ricecooker", C.APPLIANCE, "Xiaomi", year=2019, v6=_NO6, ess=1, third=0, support=0, wf=1))

    # --------------------------------------------------------------- Cameras
    add(_Row("Amcrest Cam", C.CAMERA, "Amcrest", year=2018, v6=_LLA_ONLY, du="ndp addr aaaa4", iid="stable",
             tel=2, img=1, wf=1, tcp4=(554,)))
    add(_Row("Arlo Q Cam", C.CAMERA, "Arlo", year=2017, v6=_NO6, wf=1))
    add(_Row("Blink Doorbell", C.CAMERA, "Blink", year=2022, v6=_NO6, wf=1))
    add(_Row("Blink Security", C.CAMERA, "Blink", year=2018, v6=_LLA_ONLY, du="ndp addr aaaa4", iid="stable",
             tel=2, wf=1))
    add(_Row("D-Link Camera", C.CAMERA, "D-Link", year=2017, v6=_NO6, wf=1, tcp4=(80,)))
    add(_Row("ICSee Doorbell", C.CAMERA, "ICSee", year=2022, v6=_NO6, wf=1))
    add(_Row("Lefun Cam", C.CAMERA, "Lefun", year=2018, v6=_LLA_ONLY, du="ndp addr aaaa4", iid="stable",
             tel=2, img=1, v4a_class=1, wf=1))
    add(_Row("Microseven Cam", C.CAMERA, "Microseven", year=2018, v6=_NO6, wf=1, tcp4=(554,)))
    add(_Row(
        "Nest Camera", C.CAMERA, "Google", platform="Nest", year=2021,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 aaaa4 data6 local",
        iid="eui64", gua_n=38, ula_n=14, ess=2, t43p=8, t34p=4, t34f=2, steady=3, aonly=1, flips=9, v6_third=1, wf=2,
        vol=30000, v6frac=0.93,
    ))
    add(_Row(
        "Nest Doorbell", C.CAMERA, "Google", platform="Nest", year=2021,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 aaaa4 data6 local",
        iid="eui64", gua_n=36, ula_n=12, ess=2, t43p=7, t34p=3, t34f=1, steady=2, flips=8, v6_support=1, wf=2,
        vol=8000, v6frac=0.15,
    ))
    add(_Row("Ring Camera", C.CAMERA, "Ring", year=2019, v6=_NO6, wf=1))
    add(_Row("Ring Doorbell", C.CAMERA, "Ring", year=2019, v6=_NO6, du="aaaa4", tel=1, wf=1))
    add(_Row("Ring Wired Cam", C.CAMERA, "Ring", year=2022, v6=_NO6, wf=1))
    add(_Row("Ring Indoor Cam", C.CAMERA, "Ring", year=2022, v6=_NO6, wf=1))
    add(_Row("TP-Link Camera", C.CAMERA, "TP-Link", year=2017, v6=_NO6, wf=1))
    add(_Row("Tuya Camera", C.CAMERA, "Tuya", platform="Tuya", year=2022, v6=_NO6, wf=1))
    add(_Row("Wyze Cam", C.CAMERA, "Wyze", year=2018, v6=_NO6, du="aaaa4", tel=2, img=1, wf=1, tcp4=(80,)))
    add(_Row("Yi Camera", C.CAMERA, "Yi", year=2018, v6=_NO6, wf=1))

    # ------------------------------------------------------------------- TVs
    add(_Row("Nintendo Switch", C.TV, "Nintendo", year=2021, v6=_NO6, wf=1, vol=20000))
    add(_Row(
        "Apple TV", C.TV, "Apple", os="iOS/tvOS", year=2021,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 data6 local",
        iid="temporary", gua_n=20, ula_n=3, lla_n=3, d6="both",
        ess=3, essA=True, t43p=5, t43f=6, t34p=9, t34f=4, steady=23, lit=40, img=8, tel=20, aonly=4,
        third=3, support=2, trk=3, wf=3, vol=100000, v6frac=0.45, tcp4=(7000,), tcp6=(7000,),
    ))
    add(_Row(
        "Google TV", C.TV, "Google", platform="Chromecast", os="Android-based", year=2021,
        v6="ndp addr gua dns6 data6 local", du="ndp addr gua dns6 data6 local",
        iid="eui64", gua_n=12, fast_rotate=True,
        ess=3, essA=True, t43p=5, t43f=7, t34p=9, t34f=4, steady=20, lit=38, img=8, tel=20, aonly=4,
        third=3, support=2, trk=3, wf=3, vol=100000, v6frac=0.50, tcp4=(8008,), tcp6=(8008,),
    ))
    add(_Row(
        "Fire TV", C.TV, "Amazon", platform="Amazon", os="FireOS", year=2021,
        v6="ndp addr gua dns6", du="ndp addr gua dns6 aaaa4 data6",
        iid="eui64", gua_n=1, dad_skip=("GUA",),
        ess=2, t43p=3, t34p=0, t34f=0, steady=20, lit=28, v4a_class=4, img=0, tel=32, aonly=3,
        flips=35, third=2, support=2, wf=2, vol=80000, v6frac=0.25,
    ))
    add(_Row("Roku TV", C.TV, "Roku", year=2021, v6=_NO6, du="aaaa4", essA=True, tel=0, img=0, v4a_class=4,
             third=1, support=1, wf=2, vol=50000, tcp4=(8060,)))
    add(_Row(
        "Samsung TV", C.TV, "Samsung/SmartThings", platform="SmartThings", os="Tizen", year=2021,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 aaaa4 data6 local",
        iid="temporary", gua_n=15, ula_n=3, lla_n=3, d6="both",
        ess=2, t43p=4, t34p=8, t34f=4, steady=20, lit=27, v4a_class=5, tel=37, aonly=3,
        flips=47, third=2, support=2, wf=2, vol=100000, v6frac=0.14, tcp4=(8001,), tcp6=(8001,),
    ))
    add(_Row(
        "TiVo Stream", C.TV, "TiVo", os="Android-based", year=2021,
        v6="ndp addr gua dns6 data6 local", du="ndp addr gua dns6 aaaa4 data6 local",
        iid="temporary", gua_n=4,
        ess=3, essA=True, t43p=3, t43f=7, t34p=5, t34f=3, steady=33, lit=40, img=2, tel=19, aonly=2,
        flips=25, third=3, support=2, trk=3, wf=3, vol=90000, v6frac=0.88,
    ))
    add(_Row(
        "Vizio TV", C.TV, "Vizio", os="SmartCast", year=2021,
        v6="ndp addr gua dns6 data6 local", du="ndp addr gua dns6 aaaa4 data6 local",
        iid="eui64", gua_n=3, dad_skip=("GUA",), d6="stateless", rdnss=False,
        ess=2, steady=24, lit=35, v4a_class=3, tel=18, aonly=0, flips=32, v6_support=1,
        third=2, support=2, wf=2, vol=60000, v6frac=0.14,
    ))

    # -------------------------------------------------------------- Gateways
    add(_Row(
        "Aeotec Hub", C.GATEWAY, "Samsung/SmartThings", platform="SmartThings", year=2021,
        v6="ndp addr gua ula dns6 local", du="ndp addr gua ula dns6 aaaa4 ntp data6 local",
        iid="eui64", gua_n=45, ula_n=6, d6="both", use_lease=True,
        ess=2, lit=9, aonly=4, tel=19, flips=1, tel_third=3, tel_support=1, third=1, support=1, wf=1, vol=30000, v6frac=0.01,
    ))
    add(_Row("Aqara Hub", C.GATEWAY, "Aqara", year=2022, v6=_LLA_ONLY, iid="eui64", dad=False, wf=1))
    add(_Row("Aqara Hub M2", C.GATEWAY, "Aqara", year=2023, v6=_LLA_ONLY, iid="eui64", dad=False, wf=1))
    add(_Row("Eufy Hub", C.GATEWAY, "Eufy", year=2021, v6=_LLA_ONLY, du=_NO6, iid="eui64",
             dad_skip=("LLA",), wf=1, tcp4=(80,)))
    add(_Row(
        "IKEA Gateway", C.GATEWAY, "IKEA", year=2021,
        v6="ndp addr gua ula ntp", du="ndp addr ula aaaa4",
        iid="stable", lla=False, gua_n=5, ula_n=2, dad_skip=("GUA",), d6="stateless",
        ess=2, img=3, tel=1, third=1, support=1, wf=1,
    ))
    add(_Row("Sengled Hub", C.GATEWAY, "Sengled", year=2018, v6=_LLA_ONLY, iid="eui64",
             dad_skip=("LLA",), wf=1, tcp4=(8080,)))
    add(_Row(
        "SmartThings Hub", C.GATEWAY, "Samsung/SmartThings", platform="SmartThings", year=2018,
        v6="ndp addr gua ula dns6 local", du="ndp addr gua ula dns6 local",
        iid="eui64", gua_n=50, ula_n=6, d6="both", use_lease=True,
        ess=2, aonly=4, tel=9, tel_third=3, tel_support=1, third=1, support=1, wf=1, tcp4=(39500,), tcp6=(39500,),
    ))
    add(_Row("SwitchBot Hub", C.GATEWAY, "SwitchBot", year=2021, v6=_NO6, wf=1))
    add(_Row(
        "Philips Hue Hub", C.GATEWAY, "Philips Hue", year=2018,
        v6="ndp addr ula local", du="ndp addr ula aaaa4 local",
        iid="stable", ula_n=2, tel=1, third=1, support=1, wf=1, tcp4=(80,),
    ))
    add(_Row("SwitchBot Hub 2", C.GATEWAY, "SwitchBot", year=2023, v6=_LLA_ONLY, iid="stable",
             dad_skip=("LLA",), wf=1))
    add(_Row(
        "ThirdReality Bridge", C.GATEWAY, "ThirdReality", year=2023,
        v6="ndp addr gua local", du="ndp addr gua aaaa4 local",
        iid="stable", gua_n=3, dad_skip=("LLA",), img=2, third=1, support=1, wf=1,
    ))
    add(_Row(
        "SmartLife Hub", C.GATEWAY, "Tuya", platform="Tuya", year=2023,
        v6="ndp addr gua ula dns6 data6 ntp local", du="ndp addr gua ula dns6 aaaa4 data6 ntp local",
        iid="eui64", gua_n=16, ula_n=4,
        ess=1, essAonly=1, aonly=5, lit=10, litv4=1, tel=21, flips=8, tel_third=2,
        third=1, support=1, wf=1, vol=20000, v6frac=0.02,
    ))

    # ---------------------------------------------------------------- Health
    add(_Row("Blueair Purifier", C.HEALTH, "Blueair", year=2021, v6=_NDP_ONLY, ess=1, wf=1))
    add(_Row("Keyco Air", C.HEALTH, "Keyco", year=2022, v6=_NO6, ess=1, third=0, wf=1))
    add(_Row("ThermoPro Sensor", C.HEALTH, "ThermoPro", year=2022, v6=_NDP_ONLY,
             du="ndp addr gua ula", iid="stable", lla=False, dad_skip=("GUA",), ess=1, wf=1))
    add(_Row("Withings BPM", C.HEALTH, "Withings", year=2021, v6=_NO6, ess=1, wf=1))
    add(_Row("Withings Sleep", C.HEALTH, "Withings", year=2021, v6=_NO6, ess=1, wf=1))
    add(_Row("Withings Thermo", C.HEALTH, "Withings", year=2022, v6=_NO6, ess=1, third=0, wf=1))

    # ----------------------------------------------------------- Home Auto
    add(_Row("Amazon Plug", C.HOME_AUTO, "Amazon", platform="Amazon", year=2023, v6=_NO6, wf=1))
    add(_Row("Consciot Matter Bulb", C.HOME_AUTO, "Aidot", platform="Matter", year=2024,
             v6="ndp addr", iid="eui64", dad=False, wf=1))
    add(_Row("Gosund Bulb", C.HOME_AUTO, "Tuya", platform="Tuya", year=2022,
             v6=_NDP_ONLY, du="ndp addr gua", iid="temporary", lla=False, wf=1))
    add(_Row("Govee Strip", C.HOME_AUTO, "Govee", year=2022, v6=_NO6, wf=1))
    add(_Row("Govee Matter Strip", C.HOME_AUTO, "Govee", platform="Matter", year=2023,
             v6="ndp addr", iid="eui64", dad=False, d6="stateful", wf=1))
    add(_Row("Meross Dooropener", C.HOME_AUTO, "Meross", year=2023, v6=_NO6, wf=1))
    add(_Row("Meross Matter Plug", C.HOME_AUTO, "Meross", platform="Matter", year=2024,
             v6="ndp addr gua ula local", iid="eui64", ula_n=2, dad_skip=("ULA",), d6="both", wf=1))
    add(_Row("MagicHome Strip", C.HOME_AUTO, "Tuya", platform="Tuya", year=2022, v6=_NO6, wf=1))
    add(_Row("Meross Plug", C.HOME_AUTO, "Meross", year=2023, v6=_LLA_ONLY, iid="eui64", wf=1))
    add(_Row("Nest Thermostat", C.HOME_AUTO, "Google", platform="Nest", year=2021,
             v6="ndp addr", du="ndp addr aaaa4", iid="stable", d6="both", tel=5, img=1, wf=1))
    add(_Row("Orein Matter Bulb", C.HOME_AUTO, "Aidot", platform="Matter", year=2024,
             v6="ndp addr ula", iid="stable", dad_skip=("ULA",), wf=1))
    add(_Row("Ring Chime", C.HOME_AUTO, "Amazon", platform="Amazon", year=2022, v6=_NO6, wf=1))
    add(_Row("Sengled Bulb", C.HOME_AUTO, "Sengled", year=2018, v6=_NDP_ONLY, wf=1))
    add(_Row("SmartLife Remote", C.HOME_AUTO, "Tuya", platform="Tuya", year=2023,
             v6=_NDP_ONLY, du="ndp addr", iid="stable", wf=1))
    add(_Row("Wemo Plug", C.HOME_AUTO, "Belkin", year=2017, v6=_NO6, wf=1))
    add(_Row("TP-Link Kasa Bulb", C.HOME_AUTO, "TP-Link", year=2018, v6=_NO6, wf=1))
    add(_Row("TP-Link Kasa Plug", C.HOME_AUTO, "TP-Link", year=2018, v6=_NO6, wf=1))
    add(_Row("TP-Link Tapo Plug", C.HOME_AUTO, "TP-Link", year=2023,
             v6="ndp addr gua", iid="eui64", d6="both", wf=1))
    add(_Row("Wiz Bulb", C.HOME_AUTO, "Signify", year=2022, v6=_NDP_ONLY, wf=1))
    add(_Row("Yeelight Bulb", C.HOME_AUTO, "Yeelight", year=2022, v6=_NO6, wf=1))
    add(_Row("Tuya Matter Plug", C.HOME_AUTO, "Tuya", platform="Matter", year=2024,
             v6="ndp addr ula local", iid="eui64", ula_n=2, dad_skip=("ULA",), d6="stateless", wf=1))
    add(_Row("Tapo Matter Bulb", C.HOME_AUTO, "TP-Link", platform="Matter", year=2024,
             v6="ndp addr gua", iid="stable", gua_n=2, dad_skip=("GUA",), d6="both", wf=1))
    add(_Row("Linkind Matter Plug", C.HOME_AUTO, "Aidot", platform="Matter", year=2024,
             v6="ndp addr ula", iid="eui64", dad_skip=("ULA",), wf=1))
    add(_Row("Leviton Matter Plug", C.HOME_AUTO, "Leviton", platform="Matter", year=2024,
             v6="ndp addr ula local", iid="eui64", dad_skip=("ULA",), d6="both", wf=1))
    add(_Row("August Lock", C.HOME_AUTO, "August", year=2023, v6=_NO6, wf=1))
    add(_Row("Cync Matter Plug", C.HOME_AUTO, "GE", platform="Matter", year=2024, v6=_NDP_ONLY, wf=1))

    # --------------------------------------------------------------- Speakers
    def echo(name: str, year: int, **kw) -> _Row:
        defaults = dict(
            cat=C.SPEAKER, mfr="Amazon", platform="Amazon", os="FireOS",
            iid="eui64", wf=3, vol=15000,
        )
        defaults.update(kw)
        cat = defaults.pop("cat")
        mfr = defaults.pop("mfr")
        return _Row(name, cat, mfr, year=year, **defaults)

    add(echo("Echo Dot 2nd gen", 2017, v6="ndp addr", du="ndp addr gua aaaa4 data6",
             gua_n=3, fast_rotate=True, ess=2, t43p=4, steady=5, img=1, tel=12,
             vol=20000, v6frac=0.04))
    add(echo("Echo Dot 3rd gen", 2018, v6=_LLA_ONLY, du="ndp addr aaaa4", essA=True, vol=15000))
    add(echo("Echo Dot 4th gen", 2019, v6=_LLA_ONLY, du="ndp addr aaaa4", essA=True, vol=15000))
    add(echo("Echo Dot 5th gen", 2023, v6="ndp addr", du="ndp addr gua aaaa4 data6",
             gua_n=3, fast_rotate=True, ess=2, t43p=4, steady=5, img=1, tel=14,
             vol=20000, v6frac=0.05))
    add(echo("Echo Flex", 2021, v6=_LLA_ONLY, du="ndp addr aaaa4", v4a_class=2, img=1, tel=1, vol=10000))
    add(echo("Echo Plus", 2017, v6="ndp addr gua ula dns6 data6", du="ndp addr gua ula dns6 data6",
             gua_iid="temporary", gua_n=3, ula_n=5, ess=2, t43p=4, t34p=5, t34f=2, steady=3, lit=6, img=1, tel=25, aonly=5,
             vol=30000, v6frac=0.06))
    add(echo("Echo Pop", 2023, v6=_LLA_ONLY, gua_n=1, vol=10000))
    add(echo("Echo Show 5", 2023, v6="ndp addr gua dns6 data6", du="ndp addr gua dns6 aaaa4 data6",
             gua_n=4, dad_skip=("GUA",), fast_rotate=True,
             ess=2, t43p=7, t34p=6, t34f=1, steady=4, lit=8, v4a_class=2, img=3, tel=26, aonly=5, flips=5,
             vol=45000, v6frac=0.38, tcp4=(8888,)))
    add(echo("Echo Show 8", 2023, v6="ndp addr gua dns6 data6", du="ndp addr gua dns6 aaaa4 data6",
             gua_n=4, dad_skip=("GUA",), fast_rotate=True,
             ess=2, t43p=7, t34p=6, t34f=1, steady=4, lit=8, v4a_class=2, img=3, tel=28, aonly=5, flips=5,
             vol=45000, v6frac=0.22))
    add(echo("Echo Spot", 2018, v6="ndp addr gua dns6", du="ndp addr gua dns6 aaaa4",
             gua_iid="temporary", gua_n=4, ess=2, img=1, tel=31, aonly=0, flips=10, vol=25000))
    add(_Row(
        "Meta Portal Mini", C.SPEAKER, "Meta", os="Android-based", year=2021,
        v6="ndp addr gua ula dns6 data6", du="ndp addr gua ula dns6 aaaa4 data6",
        iid="temporary", gua_n=16, ula_n=6,
        ess=3, essA=True, t43p=5, t43f=3, t34p=9, t34f=1, steady=7, lit=10, img=7, tel=9, aonly=4, flips=10,
        third=3, support=2, trk=3, wf=1, vol=60000, v6frac=0.90,
    ))
    add(_Row(
        "Google Home Mini", C.SPEAKER, "Google", platform="Nest", os="Android-based", year=2018,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 aaaa4 data6 local",
        iid="temporary", gua_n=22, ula_n=12,
        ess=3, essA=True, t43p=5, t43f=3, t34p=9, t34f=1, steady=7, lit=10, img=7, tel=9, aonly=4, flips=6,
        third=3, support=2, trk=3, wf=1, vol=50000, v6frac=0.45,
    ))
    add(_Row(
        "Google Nest Mini", C.SPEAKER, "Google", platform="Nest", os="Android-based", year=2019,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 aaaa4 data6 local",
        iid="temporary", gua_n=22, ula_n=12,
        ess=3, essA=True, t43p=5, t43f=3, t34p=9, steady=7, lit=10, img=6, tel=9, aonly=4, flips=5,
        third=3, support=2, trk=3, wf=1, vol=45000, v6frac=0.30,
    ))
    add(_Row(
        "HomePod Mini", C.SPEAKER, "Apple", os="iOS/tvOS", year=2021,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 aaaa4 data6 local",
        iid="temporary", gua_n=47, ula_n=30, lla_n=4, d6="both", use_lease=True,
        ess=2, t43p=10, t34p=8, t34f=2, steady=8, lit=20, v4a_class=3, img=3, tel=58, aonly=33, flips=8,
        third=2, support=2, wf=3, vol=55000, v6frac=0.19, tcp4=(7000,), tcp6=(7000,),
    ))
    add(_Row(
        "Nest Hub", C.SPEAKER, "Google", platform="Nest", os="Fuchsia", year=2019,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 aaaa4 data6 local",
        iid="temporary", gua_n=31, ula_n=20, lla_n=1, d6="stateless",
        ess=3, essA=True, t43p=6, t43f=4, t34p=11, steady=11, lit=10, img=7, tel=12, aonly=6, flips=7,
        third=3, support=2, trk=3, wf=1, vol=60000, v6frac=0.12,
    ))
    add(_Row(
        "Nest Hub Max", C.SPEAKER, "Google", platform="Nest", os="Fuchsia", year=2021,
        v6="ndp addr gua ula dns6 data6 local", du="ndp addr gua ula dns6 aaaa4 data6 local",
        iid="temporary", gua_n=31, ula_n=20, d6="stateless",
        ess=3, essA=True, t43p=6, t43f=4, t34p=11, steady=11, lit=10, img=6, tel=12, aonly=6, flips=6,
        third=3, support=2, trk=3, wf=1, vol=60000, v6frac=0.14,
    ))

    return r


# ---------------------------------------------------------------------------


def _largest_remainder(total: int, weights: list[float]) -> list[int]:
    """Distribute ``total`` integer units proportionally to ``weights``."""
    if total < 0:
        raise ValueError(f"cannot distribute a negative total ({total})")
    weight_sum = sum(weights)
    if total and weight_sum <= 0:
        raise ValueError("no weight available for distribution")
    if weight_sum <= 0:
        return [0] * len(weights)
    raw = [total * w / weight_sum for w in weights]
    floors = [int(x) for x in raw]
    remainder = total - sum(floors)
    order = sorted(range(len(raw)), key=lambda i: raw[i] - floors[i], reverse=True)
    for i in order[:remainder]:
        floors[i] += 1
    return floors


def _mac_for(index: int, manufacturer: str) -> MacAddress:
    # A stable digest, never hash(): str hashing is salted per process, which
    # would change every MAC (and can collide two OUIs) between runs.
    oui_seed = zlib.crc32(f"oui/{manufacturer}".encode()) & 0xFFFF
    first = (oui_seed >> 8) & 0xFC  # unicast, globally administered
    return MacAddress(bytes([first, oui_seed & 0xFF, 0x30, 0x00, (index >> 8) & 0xFF, index & 0xFF]))


@functools.cache
def build_inventory() -> tuple[DeviceProfile, ...]:
    """The 93 curated device profiles (reconciled to category targets).

    The first call builds the catalog; every later call returns the same
    tuple of frozen profiles, so every home in a process shares it.
    """
    rows = _rows()
    if len(rows) != 93:
        raise AssertionError(f"inventory must hold 93 devices, found {len(rows)}")

    # Reconcile per-category: verify fixed counts, distribute destination fill.
    fills: dict[str, int] = {}
    for cat, targets in CATEGORY_TARGETS.items():
        members = [row for row in rows if row.cat is cat]
        checks = {
            "aaaa": sum(r.aaaa_names for r in members),
            "resp": sum(r.resp_names for r in members),
            "aonly": sum(r.aonly for r in members),
            "v4a": sum(r.v4only_aaaa_names for r in members),
            "v6dest": sum(r.v6_dest for r in members),
        }
        for key, value in checks.items():
            if value != targets[key]:
                raise AssertionError(f"{cat.value}: {key} curated sum {value} != target {targets[key]}")
        fill_total = targets["dest"] - sum(r.dest_struct for r in members)
        if fill_total < 0:
            raise AssertionError(f"{cat.value}: structural destinations exceed target by {-fill_total}")
        for row, share in zip(members, _largest_remainder(fill_total, [r.wf for r in members])):
            fills[row.name] = share

    profiles: list[DeviceProfile] = []
    for index, row in enumerate(rows):
        fill = fills.get(row.name, 0)
        spec = PortfolioSpec(
            total=row.dest_struct + fill + row.tel + (row.aonly - row.essAonly),
            essential=row.ess,
            essential_aaaa=row.essA,
            essential_a_only=row.essAonly,
            aaaa_names=row.aaaa_names,
            aaaa_resp_names=row.resp_names,
            aaaa_v4only_names=row.flips if row.dual_phase.dns_v6 else row.v4only_aaaa_names,
            a_only_v6_names=row.aonly,
            v4_to_v6_partial=row.t43p,
            v4_to_v6_full=row.t43f,
            v6_to_v4_partial=row.t34p,
            v6_to_v4_full=row.t34f,
            v4only_with_aaaa=row.v4a_class,
            v6_steady=row.steady,
            third=row.third + row.trk,
            support=row.support,
            tracking_v4only=row.trk,
            v6_third=row.v6_third,
            v6_support=row.v6_support,
            tel_third=row.tel_third,
            tel_support=row.tel_support,
            v6_literal_names=row.lit,
            v6_literal_with_v4=row.litv4,
            volume=row.vol,
            v6_volume_fraction=row.v6frac,
        )
        profiles.append(
            DeviceProfile(
                name=row.name,
                category=row.cat,
                manufacturer=row.mfr,
                platform=row.platform,
                os=row.os,
                purchase_year=row.year,
                mac=_mac_for(index + 1, row.mfr),
                iid_mode=row.iid,
                gua_iid_mode=row.gua_iid,
                form_lla=row.lla,
                gua_addr_count=row.gua_n,
                ula_addr_count=row.ula_n,
                lla_count=row.lla_n,
                gua_rotation_fast=row.fast_rotate,
                dad_enabled=row.dad,
                dad_skip_scopes=row.dad_skip,
                dhcpv6_stateless=row.d6 in ("stateless", "both"),
                dhcpv6_stateful=row.d6 in ("stateful", "both"),
                use_dhcpv6_address=row.use_lease,
                accept_rdnss=row.rdnss,
                open_tcp_v4=row.tcp4,
                open_tcp_v6=row.tcp6,
                open_udp_v4=row.udp4,
                open_udp_v6=row.udp6,
                v6only=row.v6only_phase,
                dual=row.dual_phase,
                portfolio=spec,
            )
        )
    return tuple(profiles)


@functools.cache
def inventory_by_name() -> Mapping[str, DeviceProfile]:
    """The catalog keyed by device name, read-only."""
    return types.MappingProxyType({profile.name: profile for profile in build_inventory()})


def device_by_name(name: str) -> DeviceProfile:
    return inventory_by_name()[name]


@functools.cache
def control_phones() -> tuple[DeviceProfile, ...]:
    """The Pixel 7 and iPhone X used to validate each configuration (§4.1).

    Fully IPv6-capable, not part of the 93 analyzed devices. Built once per
    process, like the inventory.
    """
    full = _phase("ndp addr gua dns6 aaaa4 data6")
    return tuple(
        DeviceProfile(
            name=f"control {name}",
            category=Category.SPEAKER,  # category is irrelevant for controls
            manufacturer="control",
            os=os_name,
            purchase_year=2023,
            mac=_mac_for(200 + index, "control"),
            iid_mode="temporary",
            v6only=full,
            dual=full,
            portfolio=PortfolioSpec(total=4, essential=2, essential_aaaa=True, aaaa_names=2, aaaa_resp_names=2),
        )
        for index, (name, os_name) in enumerate((("Pixel 7", "Android"), ("iPhone X", "iOS")))
    )
