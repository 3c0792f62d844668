package fleet

import (
	"context"
	"testing"
)

// TestWorkersValidate rejects negative worker counts; the clamp of
// absurd counts to the rack-group count is TestRunContract's
// workers-clamp rows.
func TestWorkersValidate(t *testing.T) {
	cfg := DefaultConfig(RoundRobin)
	cfg.Workers = -1
	if _, _, err := Run(context.Background(), Spec{Config: cfg}); err == nil {
		t.Error("negative Workers accepted")
	}
}
