"""port_diffs: LAN-scan typing and the WAN-exposure join."""

from repro.core.privacy import PortDiffReport, port_diffs
from repro.exposure.wanscan import ExposureReport, WanScanResult
from repro.testbed.portscan import ScanReport


def lan_scan() -> ScanReport:
    return ScanReport(
        tcp_v4={"cam": {80, 443}, "tv": {8008}},
        tcp_v6={"cam": {443, 8080}, "tv": {8008}},
        scanned_v4={"cam", "tv"},
        scanned_v6={"cam", "tv", "v6only-dev"},
    )


def wan_scan() -> WanScanResult:
    result = WanScanResult(firewall="open")
    result.devices["cam"] = ExposureReport(
        device="cam", gua_count=1, addr_kinds=("eui64",), discovered=(), responsive=True,
        open_tcp={8080}, open_udp={5683},
    )
    result.devices["tv"] = ExposureReport(device="tv", gua_count=1, addr_kinds=("temporary",))
    return result


def test_port_diffs_without_exposure():
    report = port_diffs(None, scan=lan_scan())
    assert isinstance(report, PortDiffReport)
    assert report.comparable_devices == {"cam", "tv"}
    assert report.v4_only_open == {"cam": [80]}
    assert report.v6_only_open == {"cam": [8080]}
    assert report.wan_tcp_open == {} and report.wan_reachable_devices == set()


def test_port_diffs_joins_wan_exposure():
    report = port_diffs(None, scan=lan_scan(), exposure=wan_scan())
    assert report.wan_reachable_devices == {"cam"}
    assert report.wan_tcp_open == {"cam": [8080]}
    assert report.wan_udp_open == {"cam": [5683]}
    # the LAN-side diff is unchanged by the join
    assert report.v6_only_open == {"cam": [8080]}


def test_port_diffs_exposure_only():
    report = port_diffs(None, scan=ScanReport(), exposure=wan_scan())
    assert report.comparable_devices == set()
    assert report.wan_reachable_devices == {"cam"}
