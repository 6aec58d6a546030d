"""Site assembly: wire an application into the full Figure 1 stack.

Applications built from :mod:`repro.apps` carry an engine and a macro
library; :func:`build_site` mounts them behind the DB2WWW CGI program on
a router (optionally alongside other CGI programs and static pages) and
returns the pieces plus a ready in-process browser, so examples, tests
and benchmarks all assemble the stack the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.browser.client import Browser
from repro.cgi.gateway import CgiGateway, Db2WwwProgram
from repro.core.engine import MacroEngine
from repro.core.macrofile import MacroLibrary
from repro.http.inprocess import InProcessTransport
from repro.http.router import Router

DB2WWW_PROGRAM_NAME = "db2www"


@dataclass
class Site:
    """A mounted web site: router, gateway and a browser pointed at it."""

    router: Router
    gateway: CgiGateway
    transport: InProcessTransport
    browser: Browser

    def new_browser(self) -> Browser:
        """A fresh browser session against the same site."""
        return Browser(self.transport,
                       base_url=f"http://{self.router.server_name}/")

    def serve(self, *, host: str = "127.0.0.1", port: int = 0):
        """Start a real socket server for this site (caller shuts down)."""
        from repro.http.async_server import AsyncHttpServer
        return AsyncHttpServer(self.router, host=host, port=port).start()


def build_site(engine: MacroEngine, library: MacroLibrary, *,
               server_name: str = "www.example.com",
               home_page: str | None = None) -> Site:
    """Mount DB2WWW (and optionally a home page) on a fresh router."""
    gateway = CgiGateway()
    gateway.install(DB2WWW_PROGRAM_NAME, Db2WwwProgram(engine, library))
    router = Router(gateway=gateway, server_name=server_name)
    if home_page is not None:
        router.add_page("/index.html", home_page)
    transport = InProcessTransport(router)
    browser = Browser(transport, base_url=f"http://{server_name}/")
    return Site(router=router, gateway=gateway, transport=transport,
                browser=browser)
