// Package docs holds no code. Its test resolves every name DESIGN.md,
// README.md and EXPERIMENTS.md cite — a declaration, a repository
// path, a command-line flag, a test — against the source tree, so a
// doc cannot go on citing what the code has dropped. CHANGES.md and
// ROADMAP.md are history and plans and are not checked.
package docs
