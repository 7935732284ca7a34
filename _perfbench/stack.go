package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lamofinder/internal/artifact"
	"lamofinder/internal/fleet"
	"lamofinder/internal/obs"
	"lamofinder/internal/serve"
)

const drainTimeout = 10 * time.Second

// deployment is the running serving stack of one workload: replicas
// configured as `lamod serve -reload` and, for the fleet, a router
// configured as `lamod gateway`, all in this process on loopback. The
// load client talks to base.
type deployment struct {
	base     string
	replicas []*serve.Server
	router   *fleet.Router
	// files, paths and digests of the artifacts the replicas may serve;
	// the replicas start on the first.
	files          [][]byte
	paths, digests []string
	stops          []func() error
}

// stop shuts the stack down, gateway first, and waits for every server
// goroutine to return.
func (d *deployment) stop() error {
	var errs []error
	for i := len(d.stops) - 1; i >= 0; i-- {
		errs = append(errs, d.stops[i]())
	}
	d.stops = nil
	return errors.Join(errs...)
}

// stopInBackground stops the stack on its own goroutine. A replica's
// shutdown can wait about five seconds after gateway traffic: net/http
// counts a connection that has not carried a request yet as active until
// it is five seconds old, and the gateway's transport keeps such
// connections. Stopping in the background lets that wait overlap the
// next set-up instead of adding to the run.
func (d *deployment) stopInBackground() <-chan error {
	done := make(chan error, 1)
	go func() { done <- d.stop() }()
	return done
}

func discardLogger() *obs.Logger {
	return obs.NewLogger(io.Discard, obs.LevelInfo, obs.FormatJSON)
}

// deploy writes the artifact files and starts one replica on the first
// one or, for a fleet, two replicas behind a router, then waits until the
// stack answers with the expected artifact. With rec set, every server's
// handler is wrapped to record spans.
func deploy(dir string, files [][]byte, digests []string, fleetStack bool, rec *recorder) (*deployment, error) {
	d := &deployment{files: files, digests: digests}
	replicas := 1
	if fleetStack {
		replicas = 2
	}
	for i, b := range files {
		p := filepath.Join(dir, fmt.Sprintf("model-%d.lamoart", i))
		if err := os.WriteFile(p, b, 0o644); err != nil {
			return nil, err
		}
		d.paths = append(d.paths, p)
	}
	var urls []string
	for i := 0; i < replicas; i++ {
		art, err := artifact.LoadFile(d.paths[0])
		if err != nil {
			return nil, errors.Join(err, d.stop())
		}
		srv, err := serve.New(art, serve.Config{
			AllowReload: true,
			ReloadDir:   dir,
			Logger:      discardLogger(),
			Trace:       obs.NewTraceSource("lamod", 0),
		})
		if err != nil {
			return nil, errors.Join(err, d.stop())
		}
		var h http.Handler
		if rec != nil {
			h = rec.wrap("serve", srv.Handler())
		}
		url, stop, err := listen(h, srv.Serve, srv.Close)
		if err != nil {
			srv.Close()
			return nil, errors.Join(err, d.stop())
		}
		d.replicas = append(d.replicas, srv)
		d.stops = append(d.stops, stop)
		urls = append(urls, url)
	}
	d.base = urls[0]
	if fleetStack {
		rt, err := fleet.New(fleet.Config{Replicas: urls, Logger: discardLogger()})
		if err != nil {
			return nil, errors.Join(err, d.stop())
		}
		var h http.Handler
		if rec != nil {
			h = rec.wrap("gateway", rt.Handler())
			rt.StartProbes()
		}
		url, stop, err := listen(h, rt.Serve, rt.Close)
		if err != nil {
			rt.Close()
			return nil, errors.Join(err, d.stop())
		}
		d.router, d.base = rt, url
		d.stops = append(d.stops, stop)
		if err := d.awaitProbeRound(); err != nil {
			return nil, errors.Join(err, d.stop())
		}
	}
	if err := awaitHealthy(d.base, digests[0]); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// listen serves on a fresh loopback port. Without a wrapped handler it
// runs the program's own Serve, exactly as the lamod subcommand does; with
// one it runs an http.Server configured like Serve's around the wrapped
// handler and calls closeFn on shutdown, as Serve does.
func listen(wrapped http.Handler, serveFn func(context.Context, net.Listener, time.Duration) error, closeFn func()) (string, func() error, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	url := "http://" + l.Addr().String()
	done := make(chan error, 1)
	if wrapped == nil {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { done <- serveFn(ctx, l, drainTimeout) }()
		return url, func() error { cancel(); return <-done }, nil
	}
	hs := &http.Server{Handler: wrapped, ReadHeaderTimeout: 5 * time.Second}
	go func() { done <- hs.Serve(l) }()
	return url, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-done // Serve has returned http.ErrServerClosed
		closeFn()
		return err
	}, nil
}

// awaitProbeRound waits until the router's prober has seen every replica
// serving the first artifact.
func (d *deployment) awaitProbeRound() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, st := range d.router.Metrics().Replicas {
			ok = ok && st.Digest == d.digests[0] && st.State == "ready"
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway: first probe round did not see every replica ready")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// awaitHealthy asks base for /v1/healthz over a one-off connection and
// checks the reported artifact.
func awaitHealthy(base, digest string) error {
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(base + "/v1/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var h struct {
		Artifact string `json:"artifact"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if resp.StatusCode != http.StatusOK || h.Artifact != digest {
		return fmt.Errorf("healthz: status %d, artifact %q, want %q", resp.StatusCode, h.Artifact, digest)
	}
	return nil
}
