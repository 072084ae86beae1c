package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// serveCmd runs the facade.job/v1 daemon in the foreground until it is
// stopped (signal, POST /v1/shutdown, or idle timeout).
func serveCmd(argv []string) error {
	fs := flag.NewFlagSet("repro serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	portFile := fs.String("portfile", server.DefaultPortFile(), "discovery file written after listen")
	budgetMB := fs.Int64("budget", 1024, "aggregate heap budget across queued+running jobs (MiB)")
	tenantMB := fs.Int64("tenant-budget", 0, "default per-tenant heap budget (MiB, 0 = aggregate only)")
	jobs := fs.Int("jobs", 2, "max concurrently executing jobs")
	poolCap := fs.Int("pool", 8, "warm VM pool capacity")
	idle := fs.Duration("idle", 0, "auto-shutdown after this long idle (0 = never)")
	journal := fs.String("journal", "", `job journal path (default "<portfile>.journal", "none" disables)`)
	drain := fs.Duration("drain", 10*time.Second, "SIGTERM drain: how long running jobs may finish")
	faultSpec := fs.String("faults", "", `daemon-level fault spec (e.g. "killat=5" crashes at the 5th journal append)`)
	fs.Parse(argv)

	// Catch the signals before server.New writes the port file: a
	// supervisor waits for that file and may signal at once.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s, err := server.New(server.Config{
		Addr:          *addr,
		PortFile:      *portFile,
		JournalPath:   *journal,
		HeapBudget:    *budgetMB << 20,
		TenantBudget:  *tenantMB << 20,
		MaxConcurrent: *jobs,
		WarmPoolCap:   *poolCap,
		IdleTimeout:   *idle,
		DrainTimeout:  *drain,
		FaultSpec:     *faultSpec,
	})
	if err != nil {
		return err
	}
	fmt.Printf("repro serve: listening on %s (portfile %s)\n", s.Addr(), *portFile)

	// SIGTERM drains: admission closes, running jobs finish, the queue
	// stays checkpointed in the journal. SIGINT (ctrl-C) and a second
	// signal of either kind stop hard.
	go func() {
		first := <-sig
		go func() {
			<-sig
			ctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
			defer stop()
			s.Shutdown(ctx)
		}()
		ctx, stop := context.WithTimeout(context.Background(), *drain+10*time.Second)
		defer stop()
		if first == syscall.SIGTERM {
			fmt.Println("repro serve: SIGTERM, draining")
			s.Drain(ctx)
		} else {
			s.Shutdown(ctx)
		}
	}()

	s.Wait()
	return nil
}

// submitCmd sends FJ sources to the daemon (auto-starting it when none is
// running) and, unless -nowait is given, waits for the result and prints
// the program output.
func submitCmd(argv []string) error {
	fs := flag.NewFlagSet("repro submit", flag.ExitOnError)
	portFile := fs.String("portfile", server.DefaultPortFile(), "daemon discovery file")
	tenant := fs.String("tenant", "", "tenant name for budget accounting")
	priority := fs.Int("priority", 0, "queue priority (higher runs sooner)")
	transform := fs.Bool("transform", false, "apply the FACADE transform (run P')")
	dataList := fs.String("data", "", "comma-separated data classes for the transform")
	entry := fs.String("entry", "", `entry function (default "Main.main")`)
	heapMB := fs.Int("heap", 64, "managed heap budget (MiB)")
	quota := fs.Int64("quota", 0, "live off-heap page quota (0 = unlimited)")
	tierDir := fs.String("tier-dir", "", "spill directory for the off-heap disk tier (requires -tier-high)")
	tierHigh := fs.Int("tier-high", 0, "DRAM high watermark in pages; cold pages past it spill to disk (0 = no tier)")
	seed := fs.Int64("seed", 1, "Sys.rand seed")
	faults := fs.String("faults", "", `fault-injection spec (e.g. "alloc=0.001,seed=7")`)
	deadline := fs.Duration("deadline", 0, "per-job deadline (0 = none); exceeding it fails the job")
	attempts := fs.Int("attempts", 0, "max automatic re-runs after transient failures (0/1 = no retry)")
	retries := fs.Int("retries", 0, "client-side resubmits when the daemon rejects admission (429/503)")
	noWait := fs.Bool("nowait", false, "print the job id and exit without waiting")
	noStart := fs.Bool("nostart", false, "require a running daemon instead of auto-starting one")
	oneshot := fs.Bool("oneshot", false, "run in-process without a daemon (reference path)")
	fs.Parse(argv)
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: repro submit [flags] file.fj...")
	}

	sources := make(map[string]string)
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sources[path] = string(src)
	}
	var data []string
	if *dataList != "" {
		data = strings.Split(*dataList, ",")
	}

	req := server.SubmitRequest{
		Tenant:         *tenant,
		Priority:       *priority,
		Sources:        sources,
		Transform:      *transform,
		DataClasses:    data,
		Entry:          *entry,
		HeapSize:       *heapMB << 20,
		PageQuota:      *quota,
		TierDir:        *tierDir,
		TierHighPages:  *tierHigh,
		RandSeed:       seed,
		Faults:         *faults,
		DeadlineMillis: deadline.Milliseconds(),
		MaxAttempts:    *attempts,
	}
	if *oneshot {
		out, _, err := server.OneShot(req)
		fmt.Print(out)
		return err
	}
	var c *server.Client
	var err error
	if *noStart {
		c, err = server.Discover(*portFile)
	} else {
		c, err = server.EnsureServer(*portFile, server.StartOptions{})
	}
	if err != nil {
		return err
	}
	resp, err := c.SubmitWithRetry(req, server.SubmitOptions{MaxRetries: *retries})
	if err != nil {
		return err
	}
	if *noWait {
		fmt.Println(resp.JobID)
		return nil
	}
	st, err := c.Wait(resp.JobID)
	if err != nil {
		return err
	}
	fmt.Print(st.Output)
	if st.State != server.StateDone {
		return fmt.Errorf("job %s %s: %s", st.JobID, st.State, st.Error)
	}
	return nil
}

// waitCmd waits for one or more previously submitted jobs (by id) to
// reach a terminal state, printing each job's output. It exits nonzero if
// any job failed — TestServeRecoversFromKillat uses it to collect results
// that were submitted before a daemon crash.
func waitCmd(argv []string) error {
	fs := flag.NewFlagSet("repro wait", flag.ExitOnError)
	portFile := fs.String("portfile", server.DefaultPortFile(), "daemon discovery file")
	fs.Parse(argv)
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: repro wait [flags] job-id...")
	}
	c, err := server.Discover(*portFile)
	if err != nil {
		return err
	}
	var firstErr error
	for _, id := range fs.Args() {
		st, err := c.Wait(id)
		if err != nil {
			return err
		}
		fmt.Print(st.Output)
		if err := st.Err(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// statusCmd prints the daemon's status. It fails when no daemon answers,
// so a script can wait on its exit code.
func statusCmd(argv []string) error {
	fs := flag.NewFlagSet("repro status", flag.ExitOnError)
	portFile := fs.String("portfile", server.DefaultPortFile(), "daemon discovery file")
	fs.Parse(argv)
	c, err := server.Discover(*portFile)
	if err != nil {
		return fmt.Errorf("no daemon running: %w", err)
	}
	st, err := c.Status()
	if err != nil {
		return err
	}
	return server.EncodeJob(os.Stdout, st)
}

// shutdownCmd stops the daemon if one is running. With -drain it stops
// gracefully: running jobs finish, queued jobs stay checkpointed in the
// journal for the next daemon incarnation.
func shutdownCmd(argv []string) error {
	fs := flag.NewFlagSet("repro shutdown", flag.ExitOnError)
	portFile := fs.String("portfile", server.DefaultPortFile(), "daemon discovery file")
	drain := fs.Bool("drain", false, "drain instead of stopping hard")
	fs.Parse(argv)
	c, err := server.Discover(*portFile)
	if err != nil {
		fmt.Println("no daemon running")
		return nil
	}
	if *drain {
		return c.Drain()
	}
	return c.Shutdown()
}
