// Command pxqlvet runs this repository's custom static-analysis suite:
// five analyzers that prove the determinism and shard-safety contracts
// at the source level (see internal/analysis). It takes package
// patterns only (default ./...), prints one line per finding and exits
// 2 when there are any, 1 when the packages do not load:
//
//	go build -o /tmp/pxqlvet ./cmd/pxqlvet
//	/tmp/pxqlvet ./...
package main

import (
	"os"

	"perfxplain/internal/analysis/driver"
)

func main() {
	os.Exit(driver.Main(os.Args[1:], os.Stdout, os.Stderr))
}
