package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestRunGolden locks the driver's exact stdout bytes. Refresh with
//
//	go test ./cmd/ablations -run TestRunGolden -update
func TestRunGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"default", []string{"-per", "3"}},
		{"chaos", []string{"-per", "3", "-chaos"}},
		{"fleet", []string{"-fleet", "-campaign", "2", "-campaign-tasks", "12"}},
		{"campaign", []string{"-campaign", "2", "-campaign-tasks", "12"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, tc.args); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("stdout differs from %s (refresh with -update if intended)\ngot:\n%s", golden, buf.String())
			}
		})
	}
}

// TestChaosTableIsAdditive: -chaos must only append table F, leaving
// every byte of the default output in place.
func TestChaosTableIsAdditive(t *testing.T) {
	var plain, withChaos bytes.Buffer
	if err := Run(&plain, []string{"-per", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := Run(&withChaos, []string{"-per", "2", "-chaos"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(withChaos.Bytes(), plain.Bytes()) {
		t.Error("-chaos output does not extend the default output")
	}
	if !bytes.Contains(withChaos.Bytes(), []byte("F — fault robustness")) {
		t.Error("-chaos output lacks the robustness table")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, []string{"-definitely-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := Run(&buf, []string{"-fleet"}); err == nil {
		t.Error("-fleet without -campaign accepted")
	}
}

// TestFleetCampaignCLIResume is the fleet twin of the CLI-level
// kill-and-resume check (the smoke-fleet CI target mirrors it).
func TestFleetCampaignCLIResume(t *testing.T) {
	args := []string{"-fleet", "-campaign", "2", "-campaign-tasks", "10", "-parallel", "2"}
	var fresh bytes.Buffer
	if err := Run(&fresh, args); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fresh.Bytes(), []byte("fleet scenarios")) {
		t.Fatalf("fleet campaign header missing:\n%s", fresh.String())
	}

	ckpt := filepath.Join(t.TempDir(), "fleet.jsonl")
	withCkpt := append(args, "-checkpoint", ckpt)
	var partial bytes.Buffer
	if err := Run(&partial, append(withCkpt, "-campaign-limit", "4")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(partial.Bytes(), []byte("campaign interrupted: 4/")) {
		t.Fatalf("limited fleet run did not report interruption:\n%s", partial.String())
	}
	var resumed bytes.Buffer
	if err := Run(&resumed, withCkpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.Bytes(), fresh.Bytes()) {
		t.Fatalf("resumed fleet output diverges from fresh run:\ngot:\n%s\nwant:\n%s",
			resumed.String(), fresh.String())
	}
}

// TestCampaignCLIResume is the CLI-level kill-and-resume check the CI
// smoke mirrors: interrupt via -campaign-limit, resume from the
// checkpoint, and the final stdout must equal a fresh uninterrupted
// run's byte for byte.
func TestCampaignCLIResume(t *testing.T) {
	args := []string{"-campaign", "3", "-campaign-tasks", "10", "-parallel", "2"}
	var fresh bytes.Buffer
	if err := Run(&fresh, args); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fresh.Bytes(), []byte("Campaign — ")) {
		t.Fatalf("campaign mode printed no table:\n%s", fresh.String())
	}

	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	withCkpt := append(args, "-checkpoint", ckpt)
	var partial bytes.Buffer
	if err := Run(&partial, append(withCkpt, "-campaign-limit", "4")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(partial.Bytes(), []byte("campaign interrupted: 4/")) {
		t.Fatalf("limited run did not report interruption:\n%s", partial.String())
	}
	var resumed bytes.Buffer
	if err := Run(&resumed, withCkpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.Bytes(), fresh.Bytes()) {
		t.Fatalf("resumed output diverges from fresh run:\ngot:\n%s\nwant:\n%s",
			resumed.String(), fresh.String())
	}
}
