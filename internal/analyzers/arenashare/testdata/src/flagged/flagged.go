// Package flagged seeds the sharing violations arenashare exists to
// catch: single-goroutine scratch state reaching code that runs on
// other goroutines.
package flagged

import (
	"context"

	"statsize/internal/dist"
	"statsize/internal/par"
	"statsize/internal/ssta"
)

type worker struct{ ar *dist.Arena }

func consume(*dist.Keeper) {}

func SharesScratch(ctx context.Context, ar *dist.Arena, k *dist.Keeper, rec *dist.Recycler, sc *ssta.Scratch, ws worker) error {
	go func() {
		_ = ar // want `\*dist\.Arena "ar" captured by a`
	}()
	go consume(k) // want `\*dist\.Keeper passed into a goroutine`
	return par.Run(ctx, 2, 8, func(i int) error {
		_ = sc    // want `\*ssta\.Scratch "sc" captured by a par worker function`
		_ = rec   // want `\*dist\.Recycler "rec" captured by a par worker function`
		_ = ws.ar // want `\*dist\.Arena "ar" of captured "ws"`
		return nil
	})
}
