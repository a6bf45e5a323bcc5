// Protocols: object protocol inference and typestate checking — one of
// the paper's envisioned view-based analyses (§4). The target-object
// views of a trace give each object's method-call lifetime directly; from
// those we infer a protocol model per class, check a declared typestate
// property, and diff inferred protocols across two program versions to
// expose protocol drift.
//
//	go run ./examples/protocols
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	rprism "repro"
	"repro/internal/protocol"
)

const connV1 = `
class Conn {
  Bool open;
  void connect() { this.open = true; return; }
  Int query(Int q) { return q * 2; }
  void disconnect() { this.open = false; return; }
}
class Main {
  void session(Conn c, Int queries) {
    c.connect();
    let i = 0;
    while (i < queries) {
      Sys.print(c.query(i));
      i = i + 1;
    }
    c.disconnect();
    return;
  }
  void main() {
    this.session(new Conn(), 2);
    this.session(new Conn(), 0);
    this.session(new Conn(), 4);
  }
}`

func main() {
	web1 := traceWeb(connV1)
	model1 := protocol.Infer(web1, "Conn")
	fmt.Println("inferred from version 1:")
	fmt.Print(model1)

	// Version 2 "optimizes" connection reuse and sneaks in a
	// query-after-disconnect.
	connV2 := strings.Replace(connV1,
		"c.disconnect();\n    return;",
		"c.disconnect();\n    let stale = c.query(99);\n    return;", 1)
	web2 := traceWeb(connV2)
	model2 := protocol.Infer(web2, "Conn")

	fmt.Println("\nprotocol drift between versions:")
	for _, ch := range protocol.DiffModels(model1, model2) {
		fmt.Println(" ", ch)
	}

	decl := protocol.Decl{
		Class: "Conn",
		Allowed: map[string][]string{
			protocol.Start: {"connect"},
			"connect":      {"query", "disconnect"},
			"query":        {"query", "disconnect"},
		},
	}
	fmt.Println("\ntypestate check of version 2 against the declared protocol:")
	for _, v := range protocol.CheckTrace(web2, decl) {
		fmt.Println(" ", v)
	}
}

func traceWeb(src string) *rprism.Web {
	prog, err := rprism.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rprism.Run(prog, rprism.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	web, err := rprism.NewEngine().Views(context.Background(), rprism.FromTrace(res.Trace))
	if err != nil {
		log.Fatal(err)
	}
	return web
}
