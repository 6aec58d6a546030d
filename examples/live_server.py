#!/usr/bin/env python3
"""A live web site on a real TCP port — the full Figure 1 deployment.

Mounts the URL-query application (DB2WWW via CGI), the library catalog,
all four Section 6 baseline gateways and a static home page on one
HTTP server, then drives it once with the bundled browser to prove it
is up.

Run:  python examples/live_server.py [--serve]

With ``--serve`` the server stays up until Ctrl-C so you can point curl
or a real browser at it, e.g.::

    curl http://127.0.0.1:PORT/
    curl http://127.0.0.1:PORT/cgi-bin/db2www/urlquery.d2w/input
    curl 'http://127.0.0.1:PORT/cgi-bin/db2www/urlquery.d2w/report?SEARCH=ib&USE_URL=yes&DBFIELDS=title'
"""

import sys

from repro.apps import guestbook as guestbook_app
from repro.apps import library as library_app
from repro.apps import paging as paging_app
from repro.apps import urlquery
from repro.apps.site import build_site
from repro.baselines import gsql, plsql, rawcgi, wdb
from repro.browser.client import Browser
from repro.http.accesslog import AccessLog
from repro.http.client import HttpClient

HOME_PAGE = """
<HTML><HEAD><TITLE>repro: DB2 WWW Connection</TITLE></HEAD>
<BODY>
<H1>Welcome to the 1996 Web</H1>
<P>Applications on this server:</P>
<UL>
<LI><A HREF="/cgi-bin/db2www/urlquery.d2w/input">URL database query</A>
 (the paper's Appendix A)
<LI><A HREF="/cgi-bin/db2www/library.d2w/input">Library catalog</A>
<LI><A HREF="/cgi-bin/db2www/browse.d2w/input">Browse URLs (paged)</A>
<LI><A HREF="/cgi-bin/db2www/guestbook.d2w/input">Guestbook</A>
<LI><A HREF="/cgi-bin/rawcgi/input">URL query, hand-coded CGI</A>
<LI><A HREF="/cgi-bin/gsql/input">URL query, GSQL style</A>
<LI><A HREF="/cgi-bin/wdb/input">URL query, WDB style</A>
<LI><A HREF="/cgi-bin/owa/urlquery_form">URL query, PL/SQL style</A>
</UL>
</BODY></HTML>
"""


def build():
    app = urlquery.install(rows=80)
    library_app.install(registry=app.registry, library=app.library)
    # The browse and guestbook apps need their own engines (exec
    # commands / hardening), so they get their own db2www mounts below
    # via shared library + per-app programs; simplest is to share the
    # registry+library and reuse the urlquery engine where possible.
    paging = paging_app.install(registry=app.registry,
                                library=app.library)
    app.engine.exec_runner = paging.engine.exec_runner
    guestbook_app.install(registry=app.registry, library=app.library)
    site = build_site(app.engine, app.library, home_page=HOME_PAGE)
    site.router.access_log = AccessLog()
    site.gateway.install("rawcgi", rawcgi.RawCgiUrlQuery(app.registry))
    site.gateway.install("gsql", gsql.install_urlquery(app.registry))
    site.gateway.install("wdb", wdb.install_urlquery(app.registry))
    site.gateway.install("owa", plsql.install_urlquery(app.registry))
    return site


def main() -> None:
    site = build()
    server = site.serve()
    print(f"serving on {server.base_url}")
    try:
        browser = Browser(HttpClient(), base_url=server.base_url)
        home = browser.get("/")
        print("\nHome page over real TCP:")
        print(home.render())
        page = browser.follow("URL database query")
        form = page.form(0)
        form.set("SEARCH", "ibm")
        report = browser.submit(form, click="Submit Query")
        hits = [link.href for link in report.links if "/page" in link.href]
        print(f"Submitted a search over TCP: {len(hits)} matching "
              f"URL(s), first: {hits[0] if hits else '-'}")
        guest = browser.get("/cgi-bin/db2www/guestbook.d2w/report")
        print(f"Guestbook page: HTTP {guest.status}")
        log = site.router.access_log
        print(f"Access log: {log.stats()}")
        if "--serve" in sys.argv[1:]:
            print("\nServer running; press Ctrl-C to stop.")
            import signal
            signal.pause()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        print("server stopped.")


if __name__ == "__main__":
    main()
