package facade_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/facade"
	"repro/internal/gps"
	"repro/internal/graphchi"
	"repro/internal/hyracks"
	"repro/internal/ir"
	"repro/internal/load"
)

// TestConcurrentBuildsShareStdlibTokens builds the three engine data paths
// and the four daemon scenarios from eight goroutines at once. Every build
// parses the stdlib from one token slice lexed once per process
// (internal/stdlib), so under -race this is the check that the parser only
// reads it; the printed IR of P and P′ must match a serial build byte for
// byte.
func TestConcurrentBuildsShareStdlibTokens(t *testing.T) {
	type input struct {
		sources map[string]string
		data    []string
	}
	inputs := []input{
		{map[string]string{"graphchi.fj": graphchi.Source}, graphchi.DataClasses},
		{map[string]string{"hyracks.fj": hyracks.Source}, hyracks.DataClasses},
		{map[string]string{"gps.fj": gps.Source}, gps.DataClasses},
	}
	for _, sc := range load.Scenarios() {
		var data []string
		for _, src := range sc.Sources {
			data = append(data, facade.DataClassesDirective(src)...)
		}
		inputs = append(inputs, input{sc.Sources, data})
	}
	printed := func(in input) (string, error) {
		p, p2, err := facade.Build(in.sources, in.data)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, prog := range []*ir.Program{p, p2} {
			for _, f := range prog.FuncList {
				sb.WriteString(f.String())
			}
		}
		return sb.String(), nil
	}
	want := make([]string, len(inputs))
	for i, in := range inputs {
		var err error
		if want[i], err = printed(in); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(inputs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range inputs {
				i := (w + k) % len(inputs) // every worker starts elsewhere
				got, err := printed(inputs[i])
				switch {
				case err != nil:
					errs <- err.Error()
				case got != want[i]:
					errs <- fmt.Sprintf("worker %d: input %d prints other IR than a serial build", w, i)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
